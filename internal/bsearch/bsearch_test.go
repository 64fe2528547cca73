package bsearch

import (
	"math/rand"
	"sort"
	"testing"
)

// TestLastLEMatchesScan compares LastLE and Index with a linear scan
// on random ascending slices of every length up to 40, probing every
// value in and around the stored range.
func TestLastLEMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 40; n++ {
		for trial := 0; trial < 20; trial++ {
			seen := map[int32]bool{}
			s := make([]int32, 0, n)
			for len(s) < n {
				x := int32(rng.Intn(4*n + 1))
				if !seen[x] {
					seen[x] = true
					s = append(s, x)
				}
			}
			sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
			for v := int32(-2); v <= int32(4*n+2); v++ {
				want, at := -1, -1
				for i, x := range s {
					if x <= v {
						want = i
					}
					if x == v {
						at = i
					}
				}
				if got := LastLE(s, v); got != want {
					t.Fatalf("LastLE(%v, %d) = %d, want %d", s, v, got, want)
				}
				if got := Index(s, v); got != at {
					t.Fatalf("Index(%v, %d) = %d, want %d", s, v, got, at)
				}
			}
		}
	}
}

// TestIndexInt covers the int instantiation the search trees use.
func TestIndexInt(t *testing.T) {
	s := []int{2, 3, 5, 8, 13}
	for i, x := range s {
		if got := Index(s, x); got != i {
			t.Fatalf("Index(%d) = %d, want %d", x, got, i)
		}
	}
	for _, x := range []int{-1, 0, 4, 9, 14} {
		if got := Index(s, x); got != -1 {
			t.Fatalf("Index(%d) = %d, want -1", x, got)
		}
	}
	if got := LastLE([]int(nil), 1); got != -1 {
		t.Fatalf("LastLE(nil) = %d, want -1", got)
	}
}

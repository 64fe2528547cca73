// Package bsearch is the one search over ascending slices that the
// per-hop routing tables share: the ring lookups of the labeled
// schemes, search-tree positions, and tree-routing member positions.
package bsearch

// LastLE returns the index of the last element of the ascending slice s
// that is <= v, or -1 when there is none. The halving steps are
// branch-free (the compiler turns them into conditional moves), so a
// lookup does not stall on mispredicted comparisons.
func LastLE[T ~int | ~int32](s []T, v T) int {
	if len(s) == 0 {
		return -1
	}
	base, n := 0, len(s)
	for n > 1 {
		half := n >> 1
		if s[base+half] <= v {
			base += half
		}
		n -= half
	}
	if s[base] > v {
		return -1
	}
	return base
}

// Index returns the index of v in the ascending slice s of distinct
// values, or -1 when v is absent.
func Index[T ~int | ~int32](s []T, v T) int {
	if i := LastLE(s, v); i >= 0 && s[i] == v {
		return i
	}
	return -1
}

package labeled

import (
	"fmt"
	"testing"

	"compactrouting/internal/bits"
	"compactrouting/internal/graph"
	"compactrouting/internal/metric"
)

// The ring arenas keep every ring in lookup order (ascending range
// start) and answer lookups by binary search. These tests hold them to
// the reference they replaced: a linear scan over each ring in its
// canonical order — ascending x for Simple (the EncodeTable order),
// the stored ball order for ScaleFree (the snapshot order) — must find
// the same entry for every (node, level, label), and the minimal hit
// walk must stop at the same level with the same entry.

// refScan returns the first entry of ring, in the order given, whose
// range contains label, or nil.
func refScan(ring []ringEntry, label int32) *ringEntry {
	for k := range ring {
		if ring[k].lo <= label && label <= ring[k].hi {
			return &ring[k]
		}
	}
	return nil
}

// canonicalSimpleRings parses v's EncodeTable blob back into its rings
// in wire (canonical) order.
func canonicalSimpleRings(t *testing.T, s *Simple, v int) [][]ringEntry {
	t.Helper()
	tbl, nbit := s.EncodeTable(v)
	r := bits.NewReader(tbl, nbit)
	read := func(width int) uint64 {
		x, err := r.ReadBits(width)
		if err != nil {
			t.Fatalf("node %d: %v", v, err)
		}
		return x
	}
	levels, err := r.ReadUvarint()
	if err != nil {
		t.Fatal(err)
	}
	read(s.idBits) // self label
	rings := make([][]ringEntry, levels)
	for i := range rings {
		cnt, err := r.ReadUvarint()
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < cnt; k++ {
			e := ringEntry{x: int32(read(s.idBits)), lo: int32(read(s.idBits)), hi: int32(read(s.idBits)), next: int32(read(s.idBits))}
			e.far = read(1) == 1
			if len(rings[i]) > 0 && rings[i][len(rings[i])-1].x >= e.x {
				t.Fatalf("node %d level %d: wire order not ascending in x", v, i)
			}
			rings[i] = append(rings[i], e)
		}
	}
	return rings
}

// sameEntry reports whether two lookups found equal entries (or both
// none).
func sameEntry(a, b *ringEntry) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return *a == *b
}

type ringFamily struct {
	name string
	g    *graph.Graph
}

func ringFamilies(t *testing.T) []ringFamily {
	t.Helper()
	var out []ringFamily
	add := func(name string, g *graph.Graph, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, ringFamily{name, g})
	}
	for _, seed := range []int64{1, 2, 3} {
		g, _, err := graph.RandomGeometric(90, 0.2, seed)
		add(fmt.Sprintf("geometric/%d", seed), g, err)
		g, _, err = graph.GridWithHoles(9, 9, 0.25, seed)
		add(fmt.Sprintf("grid-holes/%d", seed), g, err)
		g, err = graph.PowerLaw(80, 2, 1024, seed)
		add(fmt.Sprintf("power-law/%d", seed), g, err)
	}
	g, err := graph.ExponentialPath(40, 4)
	add("exp-path", g, err)
	g, err = graph.Ring(64)
	add("ring", g, err)
	return out
}

func TestSimpleRingLookupsMatchCanonicalScan(t *testing.T) {
	for _, fam := range ringFamilies(t) {
		t.Run(fam.name, func(t *testing.T) {
			a := metric.NewAPSP(fam.g)
			s, err := NewSimple(fam.g, a, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			n := fam.g.N()
			for v := 0; v < n; v++ {
				canon := canonicalSimpleRings(t, s, v)
				lo, hi := s.rings.rings(v)
				if hi-lo != len(canon) {
					t.Fatalf("node %d: %d rings in the arena, %d on the wire", v, hi-lo, len(canon))
				}
				for label := int32(0); label < int32(n); label++ {
					refLevel, refHit := -1, (*ringEntry)(nil)
					for i, ring := range canon {
						want := refScan(ring, label)
						if got := s.rings.find(lo+i, label); !sameEntry(got, want) {
							t.Fatalf("node %d level %d label %d: find %+v, canonical scan %+v", v, i, label, got, want)
						}
						if want != nil && refHit == nil {
							refLevel, refHit = i, want
						}
					}
					level, hit, ok := s.rings.minimalHit(v, label)
					if ok != (refHit != nil) || (ok && (level != refLevel || !sameEntry(hit, refHit))) {
						t.Fatalf("node %d label %d: minimalHit (%d, %+v, %v), reference (%d, %+v)", v, label, level, hit, ok, refLevel, refHit)
					}
				}
			}
		})
	}
}

func TestScaleFreeRingLookupsMatchCanonicalScan(t *testing.T) {
	for _, fam := range ringFamilies(t) {
		t.Run(fam.name, func(t *testing.T) {
			a := metric.NewAPSP(fam.g)
			s, err := NewScaleFree(fam.g, a, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			n := fam.g.N()
			var scratch []int
			for v := 0; v < n; v++ {
				lo, hi := s.rings.rings(v)
				canon := make([][]ringEntry, 0, hi-lo)
				for k := lo; k < hi; k++ {
					// The stored order is the ball order the
					// constructor produces; the stored permutation
					// must reproduce it.
					want := s.ringEntriesAt(v, int(s.levels[k].i), &scratch)
					ring := s.rings.ring(k)
					if len(ring) != len(want) {
						t.Fatalf("node %d ring %d: %d entries, want %d", v, k, len(ring), len(want))
					}
					for c, e := range want {
						if got := ring[s.stored[int(s.rings.start[k])+c]]; got != e {
							t.Fatalf("node %d ring %d: stored entry %d is %+v, want %+v", v, k, c, got, e)
						}
					}
					canon = append(canon, want)
				}
				for label := int32(0); label < int32(n); label++ {
					refK, refHit := -1, (*ringEntry)(nil)
					for c, ring := range canon {
						want := refScan(ring, label)
						if got := s.rings.find(lo+c, label); !sameEntry(got, want) {
							t.Fatalf("node %d ring %d label %d: find %+v, canonical scan %+v", v, lo+c, label, got, want)
						}
						if want != nil && refHit == nil {
							refK, refHit = lo+c, want
						}
					}
					lv, hit, ok := s.minimalHitR(v, label)
					if ok != (refHit != nil) || (ok && (lv != s.levels[refK] || !sameEntry(hit, refHit))) {
						t.Fatalf("node %d label %d: minimalHitR (%+v, %+v, %v), reference ring %d %+v", v, label, lv, hit, ok, refK, refHit)
					}
				}
			}
		})
	}
}

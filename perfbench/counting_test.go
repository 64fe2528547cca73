package main

import (
	"bytes"
	"math"
	"testing"
	"time"

	"compactrouting"
	"compactrouting/internal/bits"
	"compactrouting/internal/frame"
	"compactrouting/internal/graph"
	"compactrouting/internal/metric"
	"compactrouting/internal/server"
	"compactrouting/internal/snapshot"
)

// TestCountingWrapperTablesByteIdentical: a scheme compiled through the
// counting wrapper encodes to the same snapshot bytes as one compiled
// on the bare backend, on both backends, and the wrapper exposes the
// optional Diameter and Prefetcher methods exactly when the backend
// does.
func TestCountingWrapperTablesByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		kind    string
		backend compactrouting.Backend
	}{
		{"geometric", compactrouting.BackendDense},
		{"power-law", compactrouting.BackendLazy},
	} {
		t.Run(string(tc.backend), func(t *testing.T) {
			g, err := generateGraph(tc.kind, 96, 3)
			if err != nil {
				t.Fatal(err)
			}
			bare := newOracle(tc.backend, g)
			wrapped, counts := countDistancer(newOracle(tc.backend, g))
			_, bareDiam := bare.(diameterer)
			_, wrapDiam := wrapped.(diameterer)
			_, barePre := bare.(metric.Prefetcher)
			_, wrapPre := wrapped.(metric.Prefetcher)
			if bareDiam != wrapDiam || barePre != wrapPre {
				t.Fatalf("optional methods: bare (Diameter %v, Prefetcher %v), wrapped (%v, %v)", bareDiam, barePre, wrapDiam, wrapPre)
			}
			for _, name := range server.SchemeNames {
				want := encodeScheme(t, name, mustBuild(t, name, g, bare))
				got := encodeScheme(t, name, mustBuild(t, name, g, wrapped))
				if !bytes.Equal(got, want) {
					t.Errorf("%s: tables built through the wrapper differ (%d vs %d bytes)", name, len(got), len(want))
				}
			}
			if counts.dist.total() == 0 || counts.ball.total() == 0 {
				t.Errorf("wrapper counted no calls: dist %d, ball %d", counts.dist.total(), counts.ball.total())
			}
		})
	}
}

// TestBuildSchemeMatchesEngine: buildScheme and bind, which mirror
// the engine's own scheme build (constructors, eps clamps, naming seed,
// adapters), yield the tables the engine serves, byte for byte in the
// snapshot codec, and walk the routes it answers, on both backends.
func TestBuildSchemeMatchesEngine(t *testing.T) {
	for _, w := range tinyWorkloads {
		t.Run(w.name, func(t *testing.T) {
			e, _, _, err := newEngine(w)
			if err != nil {
				t.Fatal(err)
			}
			f, err := e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			g, err := generateGraph(w.kind, w.n, networkSeed)
			if err != nil {
				t.Fatal(err)
			}
			bare := newOracle(w.backend, g)
			if len(f.Schemes) != len(w.schemes) {
				t.Fatalf("engine serves %d schemes, workload has %d", len(f.Schemes), len(w.schemes))
			}
			for k, blob := range f.Schemes {
				if blob.Name != w.schemes[k] {
					t.Fatalf("scheme %d is %s, want %s", k, blob.Name, w.schemes[k])
				}
				impl := mustBuild(t, blob.Name, g, bare)
				if got := encodeScheme(t, blob.Name, impl); !bytes.Equal(got, blob.Data) {
					t.Errorf("%s: tables differ from the engine's (%d vs %d bytes)", blob.Name, len(got), len(blob.Data))
				}
				c, err := bind(blob.Name, impl, g)
				if err != nil {
					t.Fatal(err)
				}
				for src := 0; src < w.n; src += 5 {
					dst := (7*src + 3) % w.n
					if dst == src {
						continue
					}
					got, want := c.walk(src, dst), e.RouteLite(k, src, dst)
					if got.Err != nil || want.Status != frame.StatusOK || int32(got.Hops) != want.Hops ||
						math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
						t.Errorf("%s %d->%d: walk (%d hops, %v, %v), engine (%d hops, %v, status %d)",
							blob.Name, src, dst, got.Hops, got.Cost, got.Err, want.Hops, want.Cost, want.Status)
					}
				}
			}
		})
	}
}

func mustBuild(t *testing.T, name string, g *graph.Graph, a metric.Distancer) any {
	t.Helper()
	impl, err := buildScheme(name, g, a, func(string, time.Duration) {})
	if err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	return impl
}

func encodeScheme(t *testing.T, name string, impl any) []byte {
	t.Helper()
	var w bits.Writer
	if err := snapshot.EncodeScheme(&w, name, impl); err != nil {
		t.Fatalf("encode %s: %v", name, err)
	}
	return append([]byte(nil), w.Bytes()...)
}

// TestGenerateGraphMatchesNetwork: the traced set-up's generator call
// builds the same graph compactrouting.GenerateNetwork serves.
func TestGenerateGraphMatchesNetwork(t *testing.T) {
	for _, kind := range []string{"geometric", "power-law"} {
		g, err := generateGraph(kind, 128, 7)
		if err != nil {
			t.Fatal(err)
		}
		nw, err := compactrouting.GenerateNetwork(kind, 128, 7, compactrouting.BackendLazy)
		if err != nil {
			t.Fatal(err)
		}
		want := nw.Graph()
		if g.N() != want.N() || g.M() != want.M() {
			t.Fatalf("%s: %d nodes %d edges, want %d and %d", kind, g.N(), g.M(), want.N(), want.M())
		}
		for v := 0; v < g.N(); v++ {
			for _, e := range want.Neighbors(v) {
				if w, ok := g.EdgeWeight(v, e.To); !ok || w != e.Weight {
					t.Fatalf("%s: edge %d-%d differs", kind, v, e.To)
				}
			}
		}
	}
}

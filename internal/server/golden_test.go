package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"compactrouting"
	"compactrouting/internal/core"
)

// Golden digests of the six-scheme engine on a geometric network
// (n=256, seed 1, eps 0.25): the SHA-256 of its encoded snapshot and a
// SHA-256 over every RouteLite answer of a fixed pair sample, per
// backend. They pin the in-memory table layout to the bytes and routes
// of the layout it replaced: a change to how rings, search trees or
// tree-routing tables are stored may make serving faster, never
// different. Regenerate only for a deliberate change to the scheme
// constructions or the snapshot format, and say so in CHANGES.md.
var goldenEngine = map[compactrouting.Backend]struct{ snapshot, routes string }{
	compactrouting.BackendDense: {
		snapshot: "fd4596fec3bb193da5d8b047e04665bcf3d636a10f53f1098fb811ea63b6c6ef",
		routes:   "cc78b9bcb31973bcc6495c436e52a5e1a74dd2fb149da5d987b31eea94beaa5a",
	},
	compactrouting.BackendLazy: {
		snapshot: "de5abdf49b5ea4d2b302b2b027400a15e626371fa5f158da8e8d7a0148557e4a",
		routes:   "cc78b9bcb31973bcc6495c436e52a5e1a74dd2fb149da5d987b31eea94beaa5a",
	},
}

// goldenPairs is the pair sample every golden route digest covers.
const goldenPairs = 3000

func TestGoldenEngineDigests(t *testing.T) {
	for _, backend := range []compactrouting.Backend{compactrouting.BackendDense, compactrouting.BackendLazy} {
		t.Run(string(backend), func(t *testing.T) {
			eng, err := New(Config{
				Build: func(seed int64) (*compactrouting.Network, error) {
					return compactrouting.GenerateNetwork("geometric", 256, seed, backend)
				},
				Seed: 1,
				Eps:  0.25,
			})
			if err != nil {
				t.Fatal(err)
			}
			f, err := eng.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			data, err := f.Encode()
			if err != nil {
				t.Fatal(err)
			}
			snap := sha256.Sum256(data)
			routes := sha256.New()
			var rec [1 + 1 + 4 + 4 + 8 + 8]byte
			for idx := range SchemeNames {
				for _, p := range core.SamplePairs(eng.Graph().Nodes, goldenPairs, 3) {
					r := eng.RouteLite(idx, p[0], p[1])
					rec[0] = byte(r.Status)
					rec[1] = 0
					if r.Cached {
						rec[1] = 1
					}
					binary.LittleEndian.PutUint32(rec[2:], uint32(r.Hops))
					binary.LittleEndian.PutUint32(rec[6:], uint32(r.MaxHeaderBits))
					binary.LittleEndian.PutUint64(rec[10:], math.Float64bits(r.Cost))
					binary.LittleEndian.PutUint64(rec[18:], math.Float64bits(r.Optimal))
					routes.Write(rec[:])
				}
			}
			want := goldenEngine[backend]
			if got := hex.EncodeToString(snap[:]); got != want.snapshot {
				t.Errorf("snapshot SHA-256 = %s, want %s", got, want.snapshot)
			}
			if got := hex.EncodeToString(routes.Sum(nil)); got != want.routes {
				t.Errorf("RouteLite digest = %s, want %s", got, want.routes)
			}
		})
	}
}

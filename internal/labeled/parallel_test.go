package labeled

import (
	"reflect"
	"runtime"
	"testing"
)

// withGOMAXPROCS runs f under the given GOMAXPROCS and restores the old
// value. GOMAXPROCS=1 forces internal/par onto its serial reference
// schedule; a value above the machine's CPU count still exercises the
// work-stealing path (goroutines interleave even on one core).
func withGOMAXPROCS(n int, f func()) {
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	f()
}

// TestSimpleParallelEquivalence asserts the hard determinism constraint
// of the parallel build pipeline: the compiled tables are bit-identical
// to a GOMAXPROCS=1 serial build.
func TestSimpleParallelEquivalence(t *testing.T) {
	f := geoFixture(t, 96, 7)
	var serial, parallel *Simple
	withGOMAXPROCS(1, func() {
		s, err := NewSimple(f.g, f.a, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		serial = s
	})
	withGOMAXPROCS(8, func() {
		s, err := NewSimple(f.g, f.a, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		parallel = s
	})
	if !reflect.DeepEqual(serial.rings, parallel.rings) {
		t.Fatal("parallel build produced different ring tables than serial build")
	}
	if !reflect.DeepEqual(serial.tblBit, parallel.tblBit) {
		t.Fatal("parallel build produced different table bit accounting than serial build")
	}
	for v := 0; v < f.g.N(); v++ {
		sb, sn := serial.EncodeTable(v)
		pb, pn := parallel.EncodeTable(v)
		if sn != pn || !reflect.DeepEqual(sb, pb) {
			t.Fatalf("node %d: encoded table differs between serial and parallel build", v)
		}
	}
}

func TestScaleFreeParallelEquivalence(t *testing.T) {
	f := geoFixture(t, 96, 7)
	var serial, parallel *ScaleFree
	withGOMAXPROCS(1, func() {
		s, err := NewScaleFree(f.g, f.a, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		serial = s
	})
	withGOMAXPROCS(8, func() {
		s, err := NewScaleFree(f.g, f.a, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		parallel = s
	})
	if !reflect.DeepEqual(serial.rings, parallel.rings) || !reflect.DeepEqual(serial.levels, parallel.levels) || !reflect.DeepEqual(serial.stored, parallel.stored) {
		t.Fatal("parallel build produced different stored levels than serial build")
	}
	if !reflect.DeepEqual(serial.ownerBall, parallel.ownerBall) {
		t.Fatal("parallel build produced different Voronoi owners than serial build")
	}
	if !reflect.DeepEqual(serial.tblBits, parallel.tblBits) {
		t.Fatal("parallel build produced different table bit accounting than serial build")
	}
	// The cell machinery holds trees and search structures; compare the
	// full deep structure level by level for a sharper failure message.
	for j := range serial.cells {
		if !reflect.DeepEqual(serial.cells[j], parallel.cells[j]) {
			t.Fatalf("packing level %d: parallel cells differ from serial cells", j)
		}
	}
}

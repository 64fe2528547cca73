package main

import (
	"math"
	"testing"

	"compactrouting"
	"compactrouting/internal/frame"
	"compactrouting/internal/server"
)

// TestCheckerCountsTamperedAnswers: a correct answer passes every
// check, and each way of tampering with it is counted as failed.
func TestCheckerCountsTamperedAnswers(t *testing.T) {
	w := workload{
		name: "tiny", kind: "geometric", n: 64, backend: compactrouting.BackendDense,
		schemes: []string{"name-independent", "full-table"},
	}
	e, _, _, err := newEngine(w)
	if err != nil {
		t.Fatal(err)
	}
	schemes, err := servedSchemes(e)
	if err != nil {
		t.Fatal(err)
	}
	p := frame.Pair{Src: 3, Dst: 41}
	wire := [2]frame.RouteResult{
		e.RouteLite(0, int(p.Src), int(p.Dst)),
		e.RouteLite(1, int(p.Src), int(p.Dst)),
	}
	local, err := e.Route("name-independent", int(p.Src), int(p.Dst))
	if err != nil {
		t.Fatal(err)
	}

	ck := newChecker(schemes)
	ck.frameAnswer(0, p, wire[0])
	ck.frameAnswer(1, p, wire[1])
	ck.httpAnswer(0, p, 200, local)
	ck.reference(0, p, wire[0], local, nil)
	if f := ck.failed.Load(); f != 0 {
		t.Fatalf("correct answers counted %d failures: %v", f, ck.failures())
	}

	tampered := []struct {
		name  string
		check func()
	}{
		{"status", func() {
			r := wire[0]
			r.Status = frame.StatusRouteFailed
			ck.frameAnswer(0, p, r)
		}},
		{"stretch above bound", func() {
			r := wire[0]
			r.Cost = r.Optimal * (schemes[0].bound + 1)
			ck.frameAnswer(0, p, r)
		}},
		{"cost below optimal", func() {
			r := wire[0]
			r.Cost = r.Optimal * (1 - 1e-6)
			ck.frameAnswer(0, p, r)
		}},
		{"http cost below optimal", func() {
			r := local
			r.Cost = r.Optimal * (1 - 1e-6)
			ck.httpAnswer(0, p, 200, r)
		}},
		{"full-table not shortest", func() {
			r := wire[1]
			r.Cost = math.Nextafter(r.Cost, math.Inf(1))
			ck.frameAnswer(1, p, r)
		}},
		{"reference cost one ulp off", func() {
			r := wire[0]
			r.Cost = math.Nextafter(r.Cost, 0)
			ck.reference(0, p, r, local, nil)
		}},
		{"reference hops", func() {
			r := wire[0]
			r.Hops++
			ck.reference(0, p, r, local, nil)
		}},
		{"http status", func() { ck.httpAnswer(0, p, 422, server.RouteResult{}) }},
		{"http path", func() {
			r := local
			r.Path = r.Path[:len(r.Path)-1]
			ck.httpAnswer(0, p, 200, r)
		}},
	}
	for i, tc := range tampered {
		tc.check()
		if f := ck.failed.Load(); f != int64(i+1) {
			t.Errorf("%s: failures = %d, want %d", tc.name, f, i+1)
		}
	}
	if a := ck.attempted.Load(); a != 3+7 {
		t.Errorf("attempted = %d, want 10 (reference checks re-answer queries already attempted)", a)
	}
}

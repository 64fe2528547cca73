package sim

import (
	"runtime"
	"testing"
	"time"

	"compactrouting/internal/baseline"
	"compactrouting/internal/core"
	"compactrouting/internal/labeled"
)

// TestRunLeaksNoGoroutines regression-tests the detached forward
// sender: under heavy convergence (every delivery addressed to one
// node, mailboxes capacity 8) detached senders pile up, and before the
// done-select fix any sender still blocked at wind-down leaked forever.
func TestRunLeaksNoGoroutines(t *testing.T) {
	g, a := fixtures(t, 60, 19)
	s := baseline.NewFullTable(g, a)
	var deliveries []Delivery
	for src := 0; src < g.N(); src++ {
		for k := 0; k < 12; k++ {
			deliveries = append(deliveries, Delivery{Src: src, Dst: 0})
		}
	}
	before := runtime.NumGoroutine()
	for round := 0; round < 8; round++ {
		results := Run[baseline.Destination](g, FullTableRouter{S: s}, deliveries, 0)
		for i, res := range results {
			if res.Err != nil {
				t.Fatalf("round %d delivery %d: %v", round, i, res.Err)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after 8 high-convergence runs",
				before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMaxHeaderBitsMonotone replays multi-hop deliveries hop by hop and
// checks the recorded MaxHeaderBits is exactly the running maximum of
// every header en route — at least the initial header, never shrunk by
// a later smaller header — and that Run and RouteOnce agree on it.
func TestMaxHeaderBitsMonotone(t *testing.T) {
	g, a := fixtures(t, 70, 27)
	s, err := labeled.NewScaleFree(g, a, 0.25) // headers mutate en route
	if err != nil {
		t.Fatal(err)
	}
	r := ScaleFreeLabeledRouter{S: s}
	pairs := core.SamplePairs(g.N(), 120, 28)
	deliveries := make([]Delivery, len(pairs))
	for i, p := range pairs {
		deliveries[i] = Delivery{Src: p[0], Dst: s.LabelOf(p[1])}
	}
	results := Run[labeled.SFHeader](g, ScaleFreeLabeledRouter{S: s}, deliveries, 64*g.N())
	multiHop := 0
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("delivery %d: %v", i, res.Err)
		}
		if len(res.Path) > 2 {
			multiHop++
		}
		// Manual replay of the same step functions.
		h, err := r.Prepare(deliveries[i].Dst)
		if err != nil {
			t.Fatal(err)
		}
		initial := h.Bits()
		max := initial
		at := deliveries[i].Src
		for {
			next, nh, arrived, err := r.Step(at, h)
			if err != nil {
				t.Fatal(err)
			}
			if arrived {
				break
			}
			if b := nh.Bits(); b > max {
				max = b
			}
			h = nh
			at = next
		}
		if res.MaxHeaderBits != max {
			t.Fatalf("delivery %d: Run recorded %d header bits, replay max is %d", i, res.MaxHeaderBits, max)
		}
		if res.MaxHeaderBits < initial {
			t.Fatalf("delivery %d: recorded max %d below initial header %d", i, res.MaxHeaderBits, initial)
		}
		once := RouteOnce[labeled.SFHeader](g, r, deliveries[i].Src, deliveries[i].Dst, 64*g.N())
		if once.MaxHeaderBits != res.MaxHeaderBits {
			t.Fatalf("delivery %d: RouteOnce max %d != Run max %d", i, once.MaxHeaderBits, res.MaxHeaderBits)
		}
	}
	if multiHop == 0 {
		t.Fatal("no multi-hop deliveries sampled; monotonicity untested")
	}
}

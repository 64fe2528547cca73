package labeled

import (
	"compactrouting/internal/core"
	"fmt"
)

// Phase5Trace decomposes one Algorithm 5 delivery into the legs of
// Figure 2 and Lemma 4.7's accounting, including the Claim 4.6 window
// around the phase-B handoff.
type Phase5Trace struct {
	Src, Dst int
	// PhaseAHops and PhaseACost cover the walk u_0 -> u_t.
	PhaseAHops int
	PhaseACost float64
	// Direct reports a delivery that ended with a level-0 ring hit
	// (x = destination), skipping phase B entirely.
	Direct bool
	// Stopping state at u_t (only when !Direct):
	IT          int     // i_t, the minimal hit level at u_t
	J           int     // packing level j of line 7
	UT          int     // u_t
	Center      int     // Voronoi center c
	CenterCost  float64 // routing cost u_t -> c
	CenterDist  float64 // d(u_t, c)
	BallRadius  float64 // r_c(j)
	SearchCost  float64 // SearchTree II round trip
	FinalCost   float64 // c -> v on T_c(j)
	RUj, RUj1   float64 // r_{u_t}(j), r_{u_t}(j+1)
	DistUTtoDst float64 // d(u_t, v)
	// Claim46Holds verifies r_{u_t}(j)/(3 eps) < d(u_t,v) < r_{u_t}(j+1)/5.
	Claim46Holds bool
	TotalCost    float64
	Optimal      float64
}

// Stretch returns the explained route's stretch.
func (p *Phase5Trace) Stretch() float64 {
	if p.Optimal == 0 {
		return 1
	}
	return p.TotalCost / p.Optimal
}

// Explain routes from src to the node labeled label like RouteToLabel,
// recording the Figure 2 anatomy. It fails on routes that would need
// the safety-net fallback (none arise within the scheme's parameter
// range).
func (s *ScaleFree) Explain(src, label int) (*Phase5Trace, error) {
	if src < 0 || src >= s.g.N() {
		return nil, fmt.Errorf("labeled: source %d out of range", src)
	}
	if label < 0 || label >= s.g.N() {
		return nil, fmt.Errorf("labeled: label %d out of range", label)
	}
	dst := s.nt.NodeOfLabel(label)
	rec := &Phase5Trace{Src: src, Dst: dst}
	tr := core.NewTrace(s.g, src)
	prev := s.h.TopLevel() + 1
	maxSteps := 4 * s.g.N() * (s.h.TopLevel() + 2)
	for step := 0; ; step++ {
		if step > maxSteps {
			return nil, fmt.Errorf("labeled: no progress routing to label %d", label)
		}
		u := tr.At()
		if s.nt.Label(u) == label {
			rec.Direct = true
			break
		}
		lv, e, found := s.minimalHitR(u, int32(label))
		li, lj := int(lv.i), int(lv.j)
		direct := found && li == 0
		if found && li <= prev && (e.far || direct) && int(e.x) != u {
			prev = li
			if err := tr.Hop(int(e.next)); err != nil {
				return nil, err
			}
			rec.PhaseAHops++
			continue
		}
		if !found {
			return nil, fmt.Errorf("labeled: explain: no ring hit at %d (outside analyzed range)", u)
		}
		rec.PhaseACost = tr.Cost()
		rec.IT, rec.J, rec.UT = li, lj, u
		cl := s.cells[lj][s.ownerBall[lj][u]]
		rec.Center = cl.center
		rec.CenterDist = s.a.Dist(u, cl.center)
		rec.BallRadius = s.pk.Balls[lj][s.ownerBall[lj][u]].Radius
		rec.RUj = s.a.RadiusOfSize(u, s.pk.Size(lj))
		rec.RUj1 = s.a.RadiusOfSize(u, s.pk.Size(lj+1))
		rec.DistUTtoDst = s.a.Dist(u, dst)
		rec.Claim46Holds = rec.RUj/(3*s.eps) < rec.DistUTtoDst &&
			(lj == s.pk.MaxJ() || rec.DistUTtoDst < rec.RUj1/5)
		// Route to the center.
		path, err := cl.tree.Route(u, cl.tree.Label(cl.center))
		if err != nil {
			return nil, err
		}
		if err := tr.Walk(path); err != nil {
			return nil, err
		}
		rec.CenterCost = tr.Cost() - rec.PhaseACost
		// Search.
		before := tr.Cost()
		data, fnd, trail := cl.st.Search(label)
		for k := 0; k+1 < len(trail); k++ {
			phys, err := cl.rz.Walk(trail[k], trail[k+1])
			if err != nil {
				return nil, err
			}
			if err := tr.Walk(phys); err != nil {
				return nil, err
			}
		}
		for k := len(trail) - 1; k > 0; k-- {
			phys, err := cl.rz.Walk(trail[k], trail[k-1])
			if err != nil {
				return nil, err
			}
			if err := tr.Walk(phys); err != nil {
				return nil, err
			}
		}
		rec.SearchCost = tr.Cost() - before
		if !fnd {
			return nil, fmt.Errorf("labeled: explain: search failed at (j=%d, c=%d) — outside analyzed range", lj, cl.center)
		}
		before = tr.Cost()
		path, err = cl.tree.Route(cl.center, data)
		if err != nil {
			return nil, err
		}
		if err := tr.Walk(path); err != nil {
			return nil, err
		}
		rec.FinalCost = tr.Cost() - before
		break
	}
	if tr.At() != dst {
		return nil, fmt.Errorf("labeled: explain ended at %d, want %d", tr.At(), dst)
	}
	if rec.Direct {
		rec.PhaseACost = tr.Cost()
	}
	rec.TotalCost = tr.Cost()
	rec.Optimal = s.a.Dist(src, dst)
	return rec, nil
}

// HeaderBitsEstimate returns the scheme's worst-case header size over
// a set of sampled routes (for reports).
func (s *ScaleFree) HeaderBitsEstimate(pairs [][2]int) (int, error) {
	max := 0
	for _, p := range pairs {
		r, err := s.RouteToLabel(p[0], s.nt.Label(p[1]))
		if err != nil {
			return 0, err
		}
		if r.MaxHeaderBits > max {
			max = r.MaxHeaderBits
		}
	}
	return max, nil
}

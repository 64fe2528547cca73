package labeled

import (
	"fmt"

	"compactrouting/internal/bits"
	"compactrouting/internal/treeroute"
)

// SFPhase tags the routing state of a scale-free labeled packet.
type SFPhase uint8

// Algorithm 5's phases as carried in the packet header.
const (
	// SFPhaseA: ring-cascade walking (lines 1-6).
	SFPhaseA SFPhase = iota
	// SFPhaseToCenter: tree-routing to the Voronoi center (line 8).
	SFPhaseToCenter
	// SFPhaseSearchDown: descending the Search Tree II (line 9).
	SFPhaseSearchDown
	// SFPhaseSearchUp: returning to the center with the result.
	SFPhaseSearchUp
	// SFPhaseFinal: tree-routing from the center to the destination
	// (line 10).
	SFPhaseFinal
)

// SFHeader is the packet header of the scale-free labeled scheme,
// factored for per-node stepping: destination label, phase tag, and
// the per-phase state (previous ring level, active packing level,
// current virtual search-tree target, the found local label).
type SFHeader struct {
	Label    int32
	Phase    SFPhase
	Prev     int32 // phase A: i_{k-1}
	J        int32 // active packing level
	VTarget  int32 // search phases: the tree node being walked toward
	Found    bool
	Fallback bool
	// CenterLabel routes to the active cell's center; Data is the
	// retrieved local label of the destination.
	CenterLabel treeroute.PortLabel
	Data        treeroute.PortLabel
}

// Bits returns the header's encoded size: label + tag + the state of
// the active phase.
func (h SFHeader) Bits() int {
	n := 3 + bits.UvarintLen(uint64(h.Label)) + 2 // tag + flags
	switch h.Phase {
	case SFPhaseA:
		n += bits.UvarintLen(uint64(h.Prev))
	case SFPhaseToCenter:
		n += bits.UvarintLen(uint64(h.J)) + h.CenterLabel.Bits()
	case SFPhaseSearchDown, SFPhaseSearchUp:
		n += bits.UvarintLen(uint64(h.J)) + bits.UvarintLen(uint64(h.VTarget+1))
		if h.Found {
			n += h.Data.Bits()
		}
	case SFPhaseFinal:
		n += bits.UvarintLen(uint64(h.J)) + h.Data.Bits()
	}
	return n
}

// PrepareHeader returns the initial header for a delivery to label.
func (s *ScaleFree) PrepareHeader(label int) (SFHeader, error) {
	if label < 0 || label >= s.g.N() {
		return SFHeader{}, fmt.Errorf("labeled: label %d out of range", label)
	}
	return SFHeader{Label: int32(label), Phase: SFPhaseA, Prev: int32(s.h.TopLevel() + 1)}, nil
}

// Step performs one forwarding decision of Algorithm 5 at node w,
// consulting only w's compiled state and the header. (During search
// phases the walk between virtual tree nodes consults the APSP next
// hops, which stand in for the Lemma 4.3 next-hop entries stored at
// the intermediate nodes.) Multiple phase transitions may resolve
// locally before a hop is emitted.
func (s *ScaleFree) Step(w int, h SFHeader) (next int, nh SFHeader, arrived bool, err error) {
	label := int(h.Label)
	for guard := 0; guard < 8; guard++ {
		switch h.Phase {
		case SFPhaseA:
			if s.nt.Label(w) == label {
				return 0, h, true, nil
			}
			lv, e, found := s.minimalHitR(w, h.Label)
			direct := found && lv.i == 0
			if found && lv.i <= h.Prev && (e.far || direct) && int(e.x) != w {
				h.Prev = lv.i
				return int(e.next), h, false, nil
			}
			j := s.pk.MaxJ()
			if found {
				j = int(lv.j)
			} else {
				h.Fallback = true
			}
			h = s.enterCell(w, h, j)
		case SFPhaseToCenter:
			cl := s.cells[h.J][s.ownerBall[h.J][w]]
			if w == cl.center {
				h.Phase = SFPhaseSearchDown
				h.VTarget = int32(w)
				continue
			}
			hop, arrivedCtr, err := cl.tree.NextHop(w, h.CenterLabel)
			if err != nil {
				return 0, h, false, err
			}
			if arrivedCtr {
				h.Phase = SFPhaseSearchDown
				h.VTarget = int32(w)
				continue
			}
			return hop, h, false, nil
		case SFPhaseSearchDown:
			if w != int(h.VTarget) {
				return s.walkToward(w, h)
			}
			cl := s.cells[h.J][s.ownerBall[h.J][w]]
			p := cl.st.Pos(w)
			if p < 0 {
				return 0, h, false, fmt.Errorf("labeled: node %d outside search tree of cell %d", w, cl.center)
			}
			descended := false
			for _, c := range cl.st.Children(p) {
				if !c.Empty && c.Lo <= label && label <= c.Hi {
					h.VTarget = c.ID
					descended = true
					break
				}
			}
			if descended {
				if w == int(h.VTarget) {
					return 0, h, false, fmt.Errorf("labeled: search self-loop at %d", w)
				}
				return s.walkToward(w, h)
			}
			for _, pr := range cl.st.Pairs(p) {
				if pr.Key == label {
					h.Found = true
					h.Data = pr.Data
					break
				}
			}
			h.Phase = SFPhaseSearchUp
			if w == cl.center {
				h = s.leaveSearch(w, h)
				continue
			}
			h.VTarget = cl.st.At(p).Parent
			return s.walkToward(w, h)
		case SFPhaseSearchUp:
			if w != int(h.VTarget) {
				return s.walkToward(w, h)
			}
			cl := s.cells[h.J][s.ownerBall[h.J][w]]
			if w == cl.center {
				h = s.leaveSearch(w, h)
				continue
			}
			p := cl.st.Pos(w)
			if p < 0 {
				return 0, h, false, fmt.Errorf("labeled: node %d outside search tree of cell %d", w, cl.center)
			}
			h.VTarget = cl.st.At(p).Parent
			return s.walkToward(w, h)
		case SFPhaseFinal:
			cl := s.cells[h.J][s.ownerBall[h.J][w]]
			hop, done, err := cl.tree.NextHop(w, h.Data)
			if err != nil {
				return 0, h, false, err
			}
			if done {
				if s.nt.Label(w) != label {
					return 0, h, false, fmt.Errorf("labeled: final phase ended at %d, wrong node", w)
				}
				return 0, h, true, nil
			}
			return hop, h, false, nil
		}
	}
	return 0, h, false, fmt.Errorf("labeled: step at %d did not converge", w)
}

// enterCell transitions to phase B at packing level j: w stores its
// cell's center label l(c; c, j).
func (s *ScaleFree) enterCell(w int, h SFHeader, j int) SFHeader {
	cl := s.cells[j][s.ownerBall[j][w]]
	h.Phase = SFPhaseToCenter
	h.J = int32(j)
	h.CenterLabel = cl.tree.Label(cl.center)
	h.Found = false
	h.Data = treeroute.PortLabel{}
	return h
}

// leaveSearch resolves the end of a search round trip at the center:
// found -> final tree route; not found -> fall back to the top-level
// cell (whose search tree indexes every node).
func (s *ScaleFree) leaveSearch(w int, h SFHeader) SFHeader {
	if h.Found {
		h.Phase = SFPhaseFinal
		return h
	}
	h.Fallback = true
	return s.enterCell(w, h, s.pk.MaxJ())
}

// walkToward emits the next physical hop toward the virtual search
// target, via the realizer (tail trees) or the canonical shortest path.
func (s *ScaleFree) walkToward(w int, h SFHeader) (int, SFHeader, bool, error) {
	cl := s.cells[h.J][s.ownerBall[h.J][w]]
	hop, err := cl.rz.NextHopToward(w, int(h.VTarget))
	if err != nil {
		return 0, h, false, err
	}
	return hop, h, false, nil
}

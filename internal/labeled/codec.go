package labeled

import (
	"fmt"

	"compactrouting/internal/bits"
	"compactrouting/internal/core"
	"compactrouting/internal/graph"
)

// TableEntry is one ring record of a Simple table in its wire order:
// the net point X, the netting-tree range [Lo, Hi] of (X, level), the
// next hop toward X, and the far flag. It exists so constructors
// outside this package — the distributed builder in internal/dist —
// can emit tables through EncodeSimpleTable.
type TableEntry struct {
	X, Lo, Hi, Next int32
	Far             bool
}

// EncodeSimpleTable serializes one node's Simple table from raw ring
// levels (levels[i] lists the level-i entries in ascending X). Layout:
// uvarint level count, the node's own label (idBits wide), then per
// level a uvarint entry count and fixed-width entries (x, lo, hi, next
// as idBits fields, plus the far flag). (*Simple).EncodeTable delegates
// here, so a table built in-network from the same rings is
// byte-identical to the oracle's.
func EncodeSimpleTable(idBits int, selfLabel int32, levels [][]TableEntry) ([]byte, int) {
	var w bits.Writer
	w.WriteUvarint(uint64(len(levels)))
	w.WriteBits(uint64(selfLabel), idBits)
	for _, ring := range levels {
		w.WriteUvarint(uint64(len(ring)))
		for _, e := range ring {
			w.WriteBits(uint64(e.X), idBits)
			w.WriteBits(uint64(e.Lo), idBits)
			w.WriteBits(uint64(e.Hi), idBits)
			w.WriteBits(uint64(e.Next), idBits)
			w.WriteBit(e.Far)
		}
	}
	return w.Bytes(), w.Len()
}

// EncodeTable serializes node v's routing table. The encoded length in
// bits is exactly TableBits(v) — the number the experiments report —
// so the space claims are backed by a real byte layout, not an
// estimate. See EncodeSimpleTable for the layout. The rings are held
// in lookup order (ascending range start); each is emitted in the
// canonical ascending-x order, so the bytes do not depend on it.
func (s *Simple) EncodeTable(v int) ([]byte, int) {
	lo, hi := s.rings.rings(v)
	levels := make([][]TableEntry, hi-lo)
	for k := lo; k < hi; k++ {
		ring := byX(s.rings.ring(k))
		lv := make([]TableEntry, len(ring))
		for i, e := range ring {
			lv[i] = TableEntry{X: e.x, Lo: e.lo, Hi: e.hi, Next: e.next, Far: e.far}
		}
		levels[k-lo] = lv
	}
	return EncodeSimpleTable(s.idBits, int32(s.nt.Label(v)), levels)
}

// DecodedSimple is a simple-labeled-scheme router reconstructed purely
// from encoded per-node tables: it shares nothing with the compiling
// scheme except the physical graph. Routing through it and through the
// original must produce identical paths — the round-trip test that
// keeps the codec and the table accounting honest.
type DecodedSimple struct {
	g         *graph.Graph
	selfLabel []int32
	rings     ringArena
	// nodeOfLabel is rebuilt from the self labels (used only to
	// validate arrival, as the destination itself would).
	nodeOfLabel []int32
}

// DecodeSimple parses the tables produced by EncodeTable for all n
// nodes (tables[v] with sizes[v] valid bits).
func DecodeSimple(g *graph.Graph, tables [][]byte, sizes []int) (*DecodedSimple, error) {
	n := g.N()
	if len(tables) != n || len(sizes) != n {
		return nil, fmt.Errorf("labeled: got %d tables for %d nodes", len(tables), n)
	}
	d := &DecodedSimple{
		g:           g,
		selfLabel:   make([]int32, n),
		rings:       newRingArena(n, 0, 0),
		nodeOfLabel: make([]int32, n),
	}
	for i := range d.nodeOfLabel {
		d.nodeOfLabel[i] = -1
	}
	idBits := bits.UintBits(n)
	for v := 0; v < n; v++ {
		self, err := parseSimpleTable(&d.rings, tables[v], sizes[v], idBits, n)
		if err != nil {
			return nil, fmt.Errorf("labeled: table %d: %w", v, err)
		}
		d.selfLabel[v] = self
		if d.nodeOfLabel[self] != -1 {
			return nil, fmt.Errorf("labeled: table %d: label %d duplicated", v, self)
		}
		d.nodeOfLabel[self] = int32(v)
	}
	d.rings.seal()
	return d, nil
}

// Step performs one forwarding decision from decoded state only.
func (d *DecodedSimple) Step(w int, h SimpleHeader) (int, SimpleHeader, bool, error) {
	if d.selfLabel[w] == h.Label {
		return 0, h, true, nil
	}
	var e *ringEntry
	if h.Target < 0 || int(h.Target) == w {
		i, hit, ok := d.rings.minimalHit(w, h.Label)
		if !ok {
			return 0, h, false, fmt.Errorf("labeled: decoded node %d has no ring hit for label %d", w, h.Label)
		}
		if int(hit.x) == w {
			return 0, h, false, fmt.Errorf("labeled: decoded self target at %d level %d", w, i)
		}
		h.Target, h.Level = hit.x, int32(i)
		e = hit
	} else if lo, hi := d.rings.rings(w); h.Level >= 0 && lo+int(h.Level) < hi {
		e = d.rings.find(lo+int(h.Level), h.Label)
	}
	if e == nil || e.x != h.Target {
		return 0, h, false, fmt.Errorf("labeled: decoded relay %d lost target %d", w, h.Target)
	}
	return int(e.next), h, false, nil
}

// RouteToLabel delivers a packet using decoded tables only.
func (d *DecodedSimple) RouteToLabel(src, label int) (*core.Route, error) {
	if label < 0 || label >= d.g.N() {
		return nil, fmt.Errorf("labeled: label %d out of range", label)
	}
	tr := core.NewTrace(d.g, src)
	h := SimpleHeader{Label: int32(label), Target: -1}
	lo, hi := d.rings.rings(src)
	maxSteps := 8 * d.g.N() * (hi - lo)
	for step := 0; ; step++ {
		if step > maxSteps {
			return nil, fmt.Errorf("labeled: decoded routing loop to label %d", label)
		}
		next, nh, arrived, err := d.Step(tr.At(), h)
		if err != nil {
			return nil, err
		}
		if arrived {
			return tr.Finish(int(d.nodeOfLabel[label]))
		}
		tr.Header(nh.Bits())
		if err := tr.Hop(next); err != nil {
			return nil, err
		}
		h = nh
	}
}

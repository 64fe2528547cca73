package searchtree

import (
	"fmt"
	"math"

	"compactrouting/internal/bits"
	"compactrouting/internal/metric"
	"compactrouting/internal/treeroute"
)

// Search-tree bit codecs for the snapshot plane. Encoding walks the
// node positions (Members ascending) and each node's child window in
// stored order, so the stream is a deterministic function of the tree
// and save→load→save is byte-identical.

// EncodeTree serializes t into w; encData writes one stored datum.
func EncodeTree[D any](w *bits.Writer, t *Tree[D], encData func(*bits.Writer, D)) {
	w.WriteUvarint(uint64(t.Center))
	w.WriteBits(math.Float64bits(t.Radius), 64)
	w.WriteBits(math.Float64bits(t.Eps), 64)
	w.WriteBits(math.Float64bits(t.TailEdgeW), 64)
	w.WriteUvarint(uint64(len(t.Members)))
	for _, v := range t.Members {
		w.WriteUvarint(uint64(v))
	}
	w.WriteUvarint(uint64(len(t.Levels)))
	for _, lv := range t.Levels {
		w.WriteUvarint(uint64(len(lv)))
		for _, v := range lv {
			w.WriteUvarint(uint64(v))
		}
	}
	w.WriteUvarint(uint64(len(t.TailSites)))
	for k, s := range t.TailSites {
		w.WriteUvarint(uint64(s))
		w.WriteUvarint(uint64(len(t.Tails[k])))
		for _, v := range t.Tails[k] {
			w.WriteUvarint(uint64(v))
		}
	}
	for p := range t.Members {
		nd := t.At(p)
		kids, pairs := t.Children(p), t.Pairs(p)
		w.WriteUvarint(uint64(nd.Parent + 1))
		w.WriteBits(math.Float64bits(nd.EdgeW), 64)
		w.WriteUvarint(uint64(nd.Level + 1))
		w.WriteUvarint(uint64(len(kids)))
		for _, c := range kids {
			w.WriteUvarint(uint64(c.ID))
			w.WriteBits(math.Float64bits(c.EdgeW), 64)
			w.WriteUvarint(uint64(c.Lo))
			w.WriteUvarint(uint64(c.Hi))
			w.WriteBit(c.Empty)
		}
		w.WriteUvarint(uint64(len(pairs)))
		for _, pr := range pairs {
			w.WriteUvarint(uint64(pr.Key))
			encData(w, pr.Data)
		}
		w.WriteUvarint(uint64(nd.Lo))
		w.WriteUvarint(uint64(nd.Hi))
		w.WriteBit(nd.SubEmpty)
	}
}

// DecodeTree reads a tree written by EncodeTree over an n-node graph;
// decData reads one stored datum. Structural sanity (member ids in
// range, every child reference resolving, all members reachable from
// the center) is verified so a corrupt stream yields an error, never a
// panic or a non-terminating Search.
func DecodeTree[D any](r *bits.Reader, n int, decData func(*bits.Reader) (D, error)) (*Tree[D], error) {
	center, err := r.ReadUvarint()
	if err != nil {
		return nil, err
	}
	if center >= uint64(n) {
		return nil, fmt.Errorf("searchtree: decoded center %d out of range", center)
	}
	var floats [3]float64
	for i := range floats {
		fb, err := r.ReadBits(64)
		if err != nil {
			return nil, err
		}
		floats[i] = math.Float64frombits(fb)
		if math.IsNaN(floats[i]) || floats[i] < 0 {
			return nil, fmt.Errorf("searchtree: decoded parameter %d invalid", i)
		}
	}
	t := &Tree[D]{
		Center:    int(center),
		Radius:    floats[0],
		Eps:       floats[1],
		TailEdgeW: floats[2],
	}
	members, err := readIDList(r, n, n)
	if err != nil {
		return nil, err
	}
	if len(members) < 1 {
		return nil, fmt.Errorf("searchtree: decoded tree has no members")
	}
	for p := 1; p < len(members); p++ {
		if members[p] <= members[p-1] {
			return nil, fmt.Errorf("searchtree: members not strictly ascending at %d", members[p])
		}
	}
	t.Members = members
	t.nodes = make([]Node, len(members))
	nl, err := r.ReadUvarint()
	if err != nil {
		return nil, err
	}
	if nl > uint64(len(members))+1 {
		return nil, fmt.Errorf("searchtree: decoded %d levels out of range", nl)
	}
	t.Levels = make([][]int, nl)
	for i := range t.Levels {
		lv, err := readIDList(r, n, n)
		if err != nil {
			return nil, err
		}
		t.Levels[i] = lv
	}
	ns, err := r.ReadUvarint()
	if err != nil {
		return nil, err
	}
	if ns > uint64(n) {
		return nil, fmt.Errorf("searchtree: decoded %d tail sites out of range", ns)
	}
	for i := 0; i < int(ns); i++ {
		s, err := r.ReadUvarint()
		if err != nil {
			return nil, err
		}
		if s >= uint64(n) {
			return nil, fmt.Errorf("searchtree: tail site %d out of range", s)
		}
		tail, err := readIDList(r, n, n)
		if err != nil {
			return nil, err
		}
		t.TailSites = append(t.TailSites, int(s))
		t.Tails = append(t.Tails, tail)
	}
	for p, v := range members {
		nd := &t.nodes[p]
		pv, err := r.ReadUvarint()
		if err != nil {
			return nil, err
		}
		if pv > uint64(n) {
			return nil, fmt.Errorf("searchtree: node %d parent out of range", v)
		}
		nd.Parent = int32(pv) - 1
		ew, err := r.ReadBits(64)
		if err != nil {
			return nil, err
		}
		nd.EdgeW = math.Float64frombits(ew)
		lv, err := r.ReadUvarint()
		if err != nil {
			return nil, err
		}
		if lv > uint64(len(members))+1 {
			return nil, fmt.Errorf("searchtree: node %d level out of range", v)
		}
		nd.Level = int32(lv) - 1
		cc, err := r.ReadUvarint()
		if err != nil {
			return nil, err
		}
		if cc > uint64(len(members)) || len(t.kids)+int(cc) > len(members) {
			return nil, fmt.Errorf("searchtree: node %d has %d children", v, cc)
		}
		nd.kids[0] = int32(len(t.kids))
		for i := 0; i < int(cc); i++ {
			var c ChildRef
			id, err := r.ReadUvarint()
			if err != nil {
				return nil, err
			}
			if id >= uint64(n) {
				return nil, fmt.Errorf("searchtree: node %d child out of range", v)
			}
			c.ID = int32(id)
			cw, err := r.ReadBits(64)
			if err != nil {
				return nil, err
			}
			c.EdgeW = math.Float64frombits(cw)
			if c.Lo, c.Hi, err = readKeyRange(r); err != nil {
				return nil, err
			}
			c.Empty, err = r.ReadBit()
			if err != nil {
				return nil, err
			}
			t.kids = append(t.kids, c)
		}
		nd.kids[1] = int32(len(t.kids))
		pc, err := r.ReadUvarint()
		if err != nil {
			return nil, err
		}
		// A pair costs at least 8 bits (a one-group uvarint key); bound
		// before allocating.
		if pc*8 > uint64(r.Remaining()) {
			return nil, fmt.Errorf("searchtree: node %d pair count %d exceeds stream", v, pc)
		}
		nd.pairs[0] = int32(len(t.pairs))
		for i := 0; i < int(pc); i++ {
			k, err := r.ReadUvarint()
			if err != nil {
				return nil, err
			}
			d, err := decData(r)
			if err != nil {
				return nil, err
			}
			t.pairs = append(t.pairs, Pair[D]{Key: int(k), Data: d})
		}
		nd.pairs[1] = int32(len(t.pairs))
		if nd.Lo, nd.Hi, err = readKeyRange(r); err != nil {
			return nil, err
		}
		nd.SubEmpty, err = r.ReadBit()
		if err != nil {
			return nil, err
		}
	}
	// Structural checks: child references resolve, and every member is
	// reachable from the center through the child windows (so Search
	// terminates on any decoded tree).
	if len(t.kids) != len(members)-1 {
		return nil, fmt.Errorf("searchtree: %d child edges for %d members", len(t.kids), len(members))
	}
	cp := t.Pos(t.Center)
	if cp < 0 {
		return nil, fmt.Errorf("searchtree: center %d not a member", t.Center)
	}
	for i := range t.kids {
		c := &t.kids[i]
		p := t.Pos(int(c.ID))
		if p < 0 {
			return nil, fmt.Errorf("searchtree: child %d not a member", c.ID)
		}
		c.Pos = int32(p)
	}
	seen := make([]bool, len(members))
	stack := []int{cp}
	seen[cp] = true
	reached := 1
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range t.Children(p) {
			if seen[c.Pos] {
				return nil, fmt.Errorf("searchtree: node %d reached twice", c.ID)
			}
			seen[c.Pos] = true
			reached++
			stack = append(stack, int(c.Pos))
		}
	}
	if reached != len(members) {
		return nil, fmt.Errorf("searchtree: only %d of %d members reachable from center", reached, len(members))
	}
	return t, nil
}

// readKeyRange reads a uvarint key range [lo, hi].
func readKeyRange(r *bits.Reader) (int, int, error) {
	lo, err := r.ReadUvarint()
	if err != nil {
		return 0, 0, err
	}
	hi, err := r.ReadUvarint()
	if err != nil {
		return 0, 0, err
	}
	return int(lo), int(hi), nil
}

// readIDList reads a uvarint count bounded by max, then that many
// node ids each bounded by n.
func readIDList(r *bits.Reader, n, max int) ([]int, error) {
	cnt, err := r.ReadUvarint()
	if err != nil {
		return nil, err
	}
	if cnt > uint64(max) {
		return nil, fmt.Errorf("searchtree: list of %d ids exceeds bound %d", cnt, max)
	}
	out := make([]int, cnt)
	for i := range out {
		v, err := r.ReadUvarint()
		if err != nil {
			return nil, err
		}
		if v >= uint64(n) {
			return nil, fmt.Errorf("searchtree: id %d out of range", v)
		}
		out[i] = int(v)
	}
	return out, nil
}

// EncodeRealizer serializes r into w. The companion tree supplies the
// deterministic iteration order (tail sites and tails); the storage
// map is only probed by key. The oracle is not serialized — the
// decoder rebinds to one.
func EncodeRealizer[D any](w *bits.Writer, r *PathRealizer, t *Tree[D], n int) {
	for k := range t.TailSites {
		treeroute.EncodeScheme(w, r.tails[k], n)
	}
	for v := 0; v < n; v++ {
		w.WriteUvarint(uint64(r.storage[v]))
	}
}

// DecodeRealizer reads a realizer written by EncodeRealizer, rebinding
// it to the oracle and re-deriving the tail-site index from the
// companion tree.
func DecodeRealizer[D any](r *bits.Reader, a metric.Distancer, t *Tree[D]) (*PathRealizer, error) {
	n := a.N()
	for k, s := range t.TailSites {
		for _, v := range t.Tails[k] {
			if t.Pos(v) < 0 {
				return nil, fmt.Errorf("searchtree: tail node %d at site %d not a member", v, s)
			}
		}
	}
	rz := newPathRealizer(a, t)
	for k, s := range t.TailSites {
		sch, err := treeroute.DecodeScheme(r, n)
		if err != nil {
			return nil, fmt.Errorf("searchtree: tail scheme at site %d: %w", s, err)
		}
		rz.tails[k] = sch
	}
	for v := 0; v < n; v++ {
		b, err := r.ReadUvarint()
		if err != nil {
			return nil, err
		}
		if b > 0 {
			rz.storage[v] = int(b)
		}
	}
	return rz, nil
}

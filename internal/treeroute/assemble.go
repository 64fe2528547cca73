package treeroute

import "fmt"

// NodeInfo is one node's compiled routing state in exported form: its
// DFS interval, parent and heavy child, the heavy child's interval, and
// its own label. It is exactly what each node ends up knowing after the
// distributed construction protocol in internal/dist (announce
// children, aggregate subtree sizes, push intervals down), so Assemble
// can compile a Scheme from per-node protocol output without any global
// view of the tree.
type NodeInfo struct {
	In, Out  int32
	Parent   int32 // -1 at the root, NotInTree for non-members
	Heavy    int32 // -1 at leaves
	HeavyIn  int32
	HeavyOut int32
	Label    Label
}

// Info exports v's compiled state in NodeInfo form — the oracle-side
// counterpart of the protocol output Assemble consumes, used by the
// equivalence tests to compare distributed and centralized builds field
// by field.
func (s *Scheme) Info(v int) (NodeInfo, bool) {
	p := s.idx.pos(v)
	if p < 0 {
		return NodeInfo{Parent: NotInTree}, false
	}
	return s.infoAt(p), true
}

// infoAt exports the state of the member at position p.
func (s *Scheme) infoAt(p int) NodeInfo {
	t := &s.tables[p]
	return NodeInfo{
		In: t.in, Out: t.out,
		Parent: t.parent, Heavy: t.heavy,
		HeavyIn: t.heavyIn, HeavyOut: t.heavyOut,
		Label: s.labels[p],
	}
}

// Assemble compiles a Scheme from per-node state. info is indexed by
// graph node id; entries with Parent == NotInTree are not tree members.
// Consistency across nodes is the protocol's responsibility (the fields
// must have come out of one construction run over one tree); Assemble
// checks only root and interval sanity. Assembled from the output of a
// correct protocol, the scheme is indistinguishable from one compiled
// by New on the same tree.
func Assemble(root int, info []NodeInfo) (*Scheme, error) {
	if root < 0 || root >= len(info) || info[root].Parent != -1 {
		return nil, fmt.Errorf("treeroute: root %d invalid", root)
	}
	parent := make([]int, len(info))
	for v := range info {
		parent[v] = int(info[v].Parent)
	}
	s := &Scheme{root: root, idx: newMemberIndex(parent)}
	for v := range info {
		ni := info[v]
		if ni.Parent == NotInTree {
			continue
		}
		if ni.Parent == -1 && v != root {
			return nil, fmt.Errorf("treeroute: second root %d", v)
		}
		if ni.In < 0 || ni.Out < ni.In {
			return nil, fmt.Errorf("treeroute: node %d has interval [%d,%d]", v, ni.In, ni.Out)
		}
		if ni.Label.In != ni.In {
			return nil, fmt.Errorf("treeroute: node %d label In %d != interval In %d", v, ni.Label.In, ni.In)
		}
		s.tables = append(s.tables, nodeTable{
			in: ni.In, out: ni.Out,
			parent: ni.Parent, heavy: ni.Heavy,
			heavyIn: ni.HeavyIn, heavyOut: ni.HeavyOut,
		})
		s.labels = append(s.labels, ni.Label)
	}
	if rt := s.tables[s.idx.pos(root)]; int(rt.out-rt.in)+1 != s.Size() {
		return nil, fmt.Errorf("treeroute: root interval [%d,%d] does not cover %d members",
			rt.in, rt.out, s.Size())
	}
	return s, nil
}

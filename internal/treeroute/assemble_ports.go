package treeroute

import "fmt"

// PortNodeInfo is one node's compiled port-model routing state in
// exported form — the PortScheme counterpart of NodeInfo, consumed by
// AssemblePorts so a scheme can be rebuilt from per-node serialized
// state (snapshots, distributed protocols) without re-running the DFS
// compile.
type PortNodeInfo struct {
	In, Out    int32
	Parent     int32 // -1 at the root, NotInTree for non-members
	Heavy      int32 // -1 at leaves
	HeavyIn    int32
	HeavyOut   int32
	LightDepth int32
	Children   []int32 // port order: Children[0] == Heavy when present
	Label      PortLabel
}

// PortInfo exports v's compiled state in PortNodeInfo form.
func (s *PortScheme) PortInfo(v int) (PortNodeInfo, bool) {
	p := s.idx.pos(v)
	if p < 0 {
		return PortNodeInfo{Parent: NotInTree}, false
	}
	return s.portInfoAt(p), true
}

// portInfoAt exports the state of the member at position p.
func (s *PortScheme) portInfoAt(p int) PortNodeInfo {
	t := &s.tables[p]
	return PortNodeInfo{
		In: t.in, Out: t.out,
		Parent: t.parent, Heavy: t.heavy,
		HeavyIn: t.heavyIn, HeavyOut: t.heavyOut,
		LightDepth: t.lightDepth,
		Children:   s.children(t),
		Label:      s.labels[p],
	}
}

// AssemblePorts compiles a PortScheme from per-node state, mirroring
// Assemble: info is indexed by graph node id, entries with Parent ==
// NotInTree are non-members, and only root and interval sanity are
// checked (cross-node consistency is the producer's responsibility).
func AssemblePorts(root int, info []PortNodeInfo) (*PortScheme, error) {
	if root < 0 || root >= len(info) || info[root].Parent != -1 {
		return nil, fmt.Errorf("treeroute: root %d invalid", root)
	}
	parent := make([]int, len(info))
	for v := range info {
		parent[v] = int(info[v].Parent)
	}
	s := &PortScheme{root: root, idx: newMemberIndex(parent)}
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
		if len(ni.Children) > 0 && ni.Children[0] != ni.Heavy {
			return nil, fmt.Errorf("treeroute: node %d children[0] %d != heavy %d", v, ni.Children[0], ni.Heavy)
		}
		lo := int32(len(s.kids))
		s.kids = append(s.kids, ni.Children...)
		s.tables = append(s.tables, portTable{
			in: ni.In, out: ni.Out,
			parent: ni.Parent, heavy: ni.Heavy,
			heavyIn: ni.HeavyIn, heavyOut: ni.HeavyOut,
			lightDepth: ni.LightDepth,
			kidLo:      lo,
			kidHi:      int32(len(s.kids)),
		})
		s.labels = append(s.labels, ni.Label)
	}
	if rt := s.tables[s.idx.pos(root)]; int(rt.out-rt.in)+1 != s.Size() {
		return nil, fmt.Errorf("treeroute: root interval [%d,%d] does not cover %d members",
			rt.in, rt.out, s.Size())
	}
	return s, nil
}

package treeroute

import (
	"fmt"

	"compactrouting/internal/bits"
)

// Scheme and PortScheme bit codecs, used by the snapshot plane: encode
// writes one membership bit per graph node id 0..n-1, in order, and
// each member's state from the position-indexed tables (the members are
// ascending, so a cursor over them keeps pace with the ids); decode
// rebuilds through Assemble / AssemblePorts so restored schemes pass
// the same sanity checks as protocol-built ones.

// EncodeScheme serializes s over an n-node graph.
func EncodeScheme(w *bits.Writer, s *Scheme, n int) {
	w.WriteUvarint(uint64(s.root))
	p := 0
	for v := 0; v < n; v++ {
		ok := p < len(s.idx) && int(s.idx[p]) == v
		w.WriteBit(ok)
		if !ok {
			continue
		}
		ni := s.infoAt(p)
		p++
		w.WriteUvarint(uint64(ni.In))
		w.WriteUvarint(uint64(ni.Out))
		w.WriteUvarint(uint64(ni.Parent + 1))
		w.WriteUvarint(uint64(ni.Heavy + 1))
		if ni.Heavy >= 0 {
			w.WriteUvarint(uint64(ni.HeavyIn))
			w.WriteUvarint(uint64(ni.HeavyOut))
		}
		ni.Label.Encode(w)
	}
}

// DecodeScheme reads a scheme written by EncodeScheme.
func DecodeScheme(r *bits.Reader, n int) (*Scheme, error) {
	root, err := r.ReadUvarint()
	if err != nil {
		return nil, err
	}
	if root >= uint64(n) {
		return nil, fmt.Errorf("treeroute: decoded root %d out of range", root)
	}
	info := make([]NodeInfo, n)
	for v := range info {
		info[v].Parent = NotInTree
	}
	for v := 0; v < n; v++ {
		ok, err := r.ReadBit()
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		ni := &info[v]
		fields := [4]uint64{}
		for i := range fields {
			f, err := r.ReadUvarint()
			if err != nil {
				return nil, err
			}
			if f > maxInt32 {
				return nil, fmt.Errorf("treeroute: node %d field overflows int32", v)
			}
			fields[i] = f
		}
		ni.In, ni.Out = int32(fields[0]), int32(fields[1])
		ni.Parent, ni.Heavy = int32(fields[2])-1, int32(fields[3])-1
		if ni.Heavy >= 0 {
			hi, err := r.ReadUvarint()
			if err != nil {
				return nil, err
			}
			ho, err := r.ReadUvarint()
			if err != nil {
				return nil, err
			}
			if hi > maxInt32 || ho > maxInt32 {
				return nil, fmt.Errorf("treeroute: node %d heavy interval overflows int32", v)
			}
			ni.HeavyIn, ni.HeavyOut = int32(hi), int32(ho)
		}
		lbl, err := DecodeLabel(r)
		if err != nil {
			return nil, err
		}
		ni.Label = lbl
	}
	return Assemble(int(root), info)
}

// EncodePortScheme serializes s over an n-node graph.
func EncodePortScheme(w *bits.Writer, s *PortScheme, n int) {
	w.WriteUvarint(uint64(s.root))
	p := 0
	for v := 0; v < n; v++ {
		ok := p < len(s.idx) && int(s.idx[p]) == v
		w.WriteBit(ok)
		if !ok {
			continue
		}
		ni := s.portInfoAt(p)
		p++
		w.WriteUvarint(uint64(ni.In))
		w.WriteUvarint(uint64(ni.Out))
		w.WriteUvarint(uint64(ni.Parent + 1))
		w.WriteUvarint(uint64(ni.Heavy + 1))
		if ni.Heavy >= 0 {
			w.WriteUvarint(uint64(ni.HeavyIn))
			w.WriteUvarint(uint64(ni.HeavyOut))
		}
		w.WriteUvarint(uint64(ni.LightDepth))
		w.WriteUvarint(uint64(len(ni.Children)))
		for _, c := range ni.Children {
			w.WriteUvarint(uint64(c))
		}
		ni.Label.Encode(w)
	}
}

// DecodePortScheme reads a scheme written by EncodePortScheme.
func DecodePortScheme(r *bits.Reader, n int) (*PortScheme, error) {
	root, err := r.ReadUvarint()
	if err != nil {
		return nil, err
	}
	if root >= uint64(n) {
		return nil, fmt.Errorf("treeroute: decoded root %d out of range", root)
	}
	info := make([]PortNodeInfo, n)
	for v := range info {
		info[v].Parent = NotInTree
	}
	for v := 0; v < n; v++ {
		ok, err := r.ReadBit()
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		ni := &info[v]
		fields := [4]uint64{}
		for i := range fields {
			f, err := r.ReadUvarint()
			if err != nil {
				return nil, err
			}
			if f > maxInt32 {
				return nil, fmt.Errorf("treeroute: node %d field overflows int32", v)
			}
			fields[i] = f
		}
		ni.In, ni.Out = int32(fields[0]), int32(fields[1])
		ni.Parent, ni.Heavy = int32(fields[2])-1, int32(fields[3])-1
		if ni.Heavy >= 0 {
			hi, err := r.ReadUvarint()
			if err != nil {
				return nil, err
			}
			ho, err := r.ReadUvarint()
			if err != nil {
				return nil, err
			}
			if hi > maxInt32 || ho > maxInt32 {
				return nil, fmt.Errorf("treeroute: node %d heavy interval overflows int32", v)
			}
			ni.HeavyIn, ni.HeavyOut = int32(hi), int32(ho)
		}
		ld, err := r.ReadUvarint()
		if err != nil {
			return nil, err
		}
		cc, err := r.ReadUvarint()
		if err != nil {
			return nil, err
		}
		if ld > maxInt32 || cc > uint64(n) {
			return nil, fmt.Errorf("treeroute: node %d light-depth/children out of range", v)
		}
		ni.LightDepth = int32(ld)
		ni.Children = make([]int32, cc)
		for i := range ni.Children {
			c, err := r.ReadUvarint()
			if err != nil {
				return nil, err
			}
			if c >= uint64(n) {
				return nil, fmt.Errorf("treeroute: node %d child out of range", v)
			}
			ni.Children[i] = int32(c)
		}
		lbl, err := DecodePortLabel(r)
		if err != nil {
			return nil, err
		}
		ni.Label = lbl
	}
	return AssemblePorts(int(root), info)
}

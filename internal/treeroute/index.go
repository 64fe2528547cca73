package treeroute

import "compactrouting/internal/bsearch"

// memberIndex is a tree's member ids in ascending order. A member's
// position in it also indexes the scheme's per-node tables and labels.
type memberIndex []int32

// newMemberIndex indexes the members of a parent array (entries other
// than NotInTree), ascending.
func newMemberIndex(parent []int) memberIndex {
	var m memberIndex
	for v, p := range parent {
		if p != NotInTree {
			m = append(m, int32(v))
		}
	}
	return m
}

// pos returns v's position, or -1 when v is not a member.
func (m memberIndex) pos(v int) int {
	if int(int32(v)) != v {
		return -1
	}
	return bsearch.Index(m, int32(v))
}

package main

import (
	"math"
	"sort"

	"compactrouting/internal/frame"
)

// framePairs is the number of queries one frame carries.
const framePairs = 16

// zipfExponent skews the hot workload's key popularity.
const zipfExponent = 1.1

// Stream salts: each phase draws from its own stream so the phases are
// independent samples of one distribution.
const (
	saltWarm uint64 = iota + 1
	saltClosed
	saltClosedTraced
	saltOpen
	saltHTTP
	saltReplay
	saltUniverse
	saltReference
)

// stream is a workload's query stream: frame i is a pure function of
// (seed, salt, i), so every connection can generate its own frames
// without coordination and the same seed always yields the same
// queries. Frame i addresses scheme i mod schemes (a fixed rotation).
type stream struct {
	seed    uint64
	n       int
	schemes int
	// keys and cdf are the hot universe (nil for uniform traffic).
	keys []frame.Pair
	cdf  []float64
}

// newStream draws the hot universe from networkSeed, not from seed:
// the universe is part of the workload, like the network, and seed
// varies only which keys are drawn from it.
func newStream(seed int64, n, schemes, hotKeys int) *stream {
	s := &stream{seed: uint64(seed), n: n, schemes: schemes}
	if hotKeys <= 0 {
		return s
	}
	s.keys = make([]frame.Pair, hotKeys)
	for i := range s.keys {
		s.keys[i] = s.uniformPair(mix(networkSeed, saltUniverse, uint64(i)))
	}
	s.cdf = make([]float64, hotKeys)
	total := 0.0
	for r := range s.cdf {
		total += 1 / math.Pow(float64(r+1), zipfExponent)
		s.cdf[r] = total
	}
	for r := range s.cdf {
		s.cdf[r] /= total
	}
	return s
}

// frame fills dst with frame i of the salted stream and returns its
// scheme index.
func (s *stream) frame(salt uint64, i int, dst []frame.Pair) (int, []frame.Pair) {
	dst = dst[:0]
	base := mix(s.seed, salt, uint64(i))
	for j := 0; j < framePairs; j++ {
		r := mix(base, uint64(j), 0)
		if s.keys == nil {
			dst = append(dst, s.uniformPair(r))
			continue
		}
		u := float64(r>>11) / (1 << 53)
		k := sort.SearchFloat64s(s.cdf, u)
		if k == len(s.keys) {
			k--
		}
		dst = append(dst, s.keys[k])
	}
	return i % s.schemes, dst
}

// uniformPair maps a random word to an ordered pair src != dst,
// uniform over all n(n-1) of them.
func (s *stream) uniformPair(r uint64) frame.Pair {
	src := int(r % uint64(s.n))
	off := 1 + int((r>>32)%uint64(s.n-1))
	return frame.Pair{Src: int32(src), Dst: int32((src + off) % s.n)}
}

// mix is a splitmix64 finalizer over three words.
func mix(a, b, c uint64) uint64 {
	z := a ^ (b+0x9e3779b97f4a7c15)*0xbf58476d1ce4e5b9 ^ (c+0x632be59bd9b4e019)*0x94d049bb133111eb
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

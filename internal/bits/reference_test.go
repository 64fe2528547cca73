package bits

import (
	"errors"
	"fmt"
	"math/bits"
)

// refWriter and refReader are the bit-at-a-time codec that Writer and
// Reader replaced: every multi-bit operation is a loop of single-bit
// steps, so the stream contract (MSB-first, zero padding, 8-bit uvarint
// groups, gamma codes, blobs) is spelled out one bit at a time.
// FuzzBitStream checks the production codec against them.
type refWriter struct {
	buf  []byte
	nbit int
}

func (w *refWriter) Len() int      { return w.nbit }
func (w *refWriter) Bytes() []byte { return w.buf }

func (w *refWriter) WriteBit(b bool) {
	if w.nbit%8 == 0 {
		w.buf = append(w.buf, 0)
	}
	if b {
		w.buf[w.nbit/8] |= 1 << uint(7-w.nbit%8)
	}
	w.nbit++
}

func (w *refWriter) WriteBits(v uint64, n int) {
	for i := n - 1; i >= 0; i-- {
		w.WriteBit(v>>uint(i)&1 == 1)
	}
}

func (w *refWriter) WriteUvarint(v uint64) {
	for v >= 0x80 {
		w.WriteBits(1, 1)
		w.WriteBits(v&0x7f, 7)
		v >>= 7
	}
	w.WriteBits(0, 1)
	w.WriteBits(v, 7)
}

func (w *refWriter) WriteGamma(v uint64) {
	n := bits.Len64(v)
	for i := 0; i < n-1; i++ {
		w.WriteBit(false)
	}
	w.WriteBits(v, n)
}

func (w *refWriter) WriteBlob(buf []byte, nbit int) {
	w.WriteUvarint(uint64(nbit))
	full := nbit / 8
	for k := 0; k < full; k++ {
		w.WriteBits(uint64(buf[k]), 8)
	}
	if rem := nbit % 8; rem > 0 {
		w.WriteBits(uint64(buf[full]>>uint(8-rem)), rem)
	}
}

type refReader struct {
	buf  []byte
	pos  int
	nbit int
}

func (r *refReader) Remaining() int { return r.nbit - r.pos }

func (r *refReader) ReadBit() (bool, error) {
	if r.pos >= r.nbit {
		return false, ErrOutOfData
	}
	b := r.buf[r.pos/8]>>uint(7-r.pos%8)&1 == 1
	r.pos++
	return b, nil
}

func (r *refReader) ReadBits(n int) (uint64, error) {
	if n < 0 || n > 64 {
		return 0, fmt.Errorf("bits: ReadBits width %d out of range", n)
	}
	var v uint64
	for i := 0; i < n; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v <<= 1
		if b {
			v |= 1
		}
	}
	return v, nil
}

func (r *refReader) ReadUvarint() (uint64, error) {
	var v uint64
	for shift := uint(0); ; shift += 7 {
		if shift > 63 {
			return 0, errors.New("bits: uvarint overflows uint64")
		}
		cont, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		grp, err := r.ReadBits(7)
		if err != nil {
			return 0, err
		}
		v |= grp << shift
		if !cont {
			return v, nil
		}
	}
}

func (r *refReader) ReadGamma() (uint64, error) {
	zeros := 0
	for {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if b {
			break
		}
		zeros++
		if zeros > 63 {
			return 0, errors.New("bits: gamma code too long")
		}
	}
	rest, err := r.ReadBits(zeros)
	if err != nil {
		return 0, err
	}
	return 1<<uint(zeros) | rest, nil
}

func (r *refReader) ReadBlob() ([]byte, int, error) {
	nbit, err := r.ReadUvarint()
	if err != nil {
		return nil, 0, err
	}
	if nbit > uint64(r.Remaining()) {
		return nil, 0, fmt.Errorf("bits: blob of %d bits exceeds stream", nbit)
	}
	n := int(nbit)
	buf := make([]byte, (n+7)/8)
	full := n / 8
	for k := 0; k < full; k++ {
		b, err := r.ReadBits(8)
		if err != nil {
			return nil, 0, err
		}
		buf[k] = byte(b)
	}
	if rem := n % 8; rem > 0 {
		b, err := r.ReadBits(rem)
		if err != nil {
			return nil, 0, err
		}
		buf[full] = byte(b << uint(8-rem))
	}
	return buf, n, nil
}

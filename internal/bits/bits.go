// Package bits provides bit-granular encoding primitives used to account
// for the exact serialized size, in bits, of routing tables, labels, and
// packet headers.
//
// Compact-routing results are stated in bits of storage per node and bits
// per packet header. To keep those claims honest, every table and header
// in this repository is serializable through a Writer and readable back
// through a Reader; the experiments report Writer.Len() values rather
// than Go in-memory sizes.
package bits

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// ErrOutOfData is returned by Reader methods when the underlying stream
// has fewer bits remaining than the caller requested.
var ErrOutOfData = errors.New("bits: read past end of stream")

// Writer accumulates a bit stream. The zero value is an empty writer
// ready for use.
type Writer struct {
	buf  []byte
	nbit int // total bits written
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return w.nbit }

// Bytes returns the accumulated stream padded with zero bits to a byte
// boundary. The returned slice aliases the writer's internal buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// WriteBit appends a single bit.
func (w *Writer) WriteBit(b bool) {
	if w.nbit%8 == 0 {
		w.buf = append(w.buf, 0)
	}
	if b {
		w.buf[w.nbit/8] |= 1 << uint(7-w.nbit%8)
	}
	w.nbit++
}

// WriteBits appends the low n bits of v, most significant first.
// n must be in [0, 64]. It fills the partial last byte, then appends
// the rest as one left-aligned word, zero-padded to a byte.
func (w *Writer) WriteBits(v uint64, n int) {
	if n < 0 || n > 64 {
		panic(fmt.Sprintf("bits: WriteBits width %d out of range", n))
	}
	if n == 0 {
		return
	}
	v &= 1<<uint(n) - 1 // shifts of 64 give 0, so n=64 keeps every bit
	w.nbit += n
	if used := uint(w.nbit-n) % 8; used != 0 {
		free := 8 - int(used)
		if n <= free {
			w.buf[len(w.buf)-1] |= byte(v << uint(free-n))
			return
		}
		n -= free
		w.buf[len(w.buf)-1] |= byte(v >> uint(n))
	}
	// The n bits left start a fresh byte: append them left-aligned in
	// one big-endian word, then cut the stream back to their bytes.
	end := len(w.buf) + (n+7)/8
	w.buf = binary.BigEndian.AppendUint64(w.buf, v<<uint(64-n))[:end]
}

// WriteUvarint appends v using a 7-bit-group varint (8 bits per group,
// continuation bit first). It always writes a multiple of 8 bits.
func (w *Writer) WriteUvarint(v uint64) {
	for v >= 0x80 {
		w.writeByte(0x80 | byte(v&0x7f))
		v >>= 7
	}
	w.writeByte(byte(v))
}

// writeByte is WriteBits(uint64(b), 8): b's bits end the partial byte
// and start the next one.
func (w *Writer) writeByte(b byte) {
	used := w.nbit % 8
	w.nbit += 8
	if used == 0 {
		w.buf = append(w.buf, b)
		return
	}
	w.buf[len(w.buf)-1] |= b >> uint(used)
	w.buf = append(w.buf, b<<uint(8-used))
}

// WriteGamma appends v >= 1 in Elias gamma code: floor(log2 v) zero bits,
// then the binary representation of v (which starts with a 1 bit).
// Gamma coding uses 2*floor(log2 v)+1 bits; it is the code used for
// light-edge port numbers in tree-routing labels, where the sum of code
// lengths telescopes.
func (w *Writer) WriteGamma(v uint64) {
	if v == 0 {
		panic("bits: WriteGamma requires v >= 1")
	}
	n := bits.Len64(v) // position of the highest set bit, 1-based
	if 2*n-1 <= 64 {
		w.WriteBits(v, 2*n-1) // the zero run is v's own leading zeros
		return
	}
	w.WriteBits(0, n-1)
	w.WriteBits(v, n)
}

// Reader consumes a bit stream produced by Writer.
type Reader struct {
	buf  []byte
	pos  int // next bit to read
	nbit int // total valid bits
}

// NewReader returns a Reader over the first nbit bits of buf.
func NewReader(buf []byte, nbit int) *Reader {
	return &Reader{buf: buf, nbit: nbit}
}

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return r.nbit - r.pos }

// ReadBit consumes and returns one bit.
func (r *Reader) ReadBit() (bool, error) {
	if r.pos >= r.nbit {
		return false, ErrOutOfData
	}
	b := r.buf[r.pos/8]>>uint(7-r.pos%8)&1 == 1
	r.pos++
	return b, nil
}

// ReadBits consumes n bits and returns them as the low bits of a uint64,
// most significant first. n must be in [0, 64]. A read of more bits
// than remain consumes the rest of the stream and returns ErrOutOfData.
func (r *Reader) ReadBits(n int) (uint64, error) {
	if n < 0 || n > 64 {
		return 0, fmt.Errorf("bits: ReadBits width %d out of range", n)
	}
	if n > r.nbit-r.pos {
		r.pos = r.nbit
		return 0, ErrOutOfData
	}
	if n == 0 {
		return 0, nil
	}
	// Load the (up to) 8 bytes from the one holding pos, shift the
	// consumed bits out, and top up from a 9th byte when the n bits
	// straddle it.
	i := r.pos / 8
	used := uint(r.pos % 8)
	r.pos += n
	var x uint64
	if i+8 <= len(r.buf) {
		x = binary.BigEndian.Uint64(r.buf[i:])
	} else {
		for k, b := range r.buf[i:] {
			x |= uint64(b) << uint(56-8*k)
		}
	}
	x <<= used
	if n > 64-int(used) {
		x |= uint64(r.buf[i+8]) >> (8 - used)
	}
	return x >> uint(64-n), nil
}

// ReadUvarint consumes a varint written by WriteUvarint.
func (r *Reader) ReadUvarint() (uint64, error) {
	var v uint64
	for shift := uint(0); ; shift += 7 {
		if shift > 63 {
			return 0, errors.New("bits: uvarint overflows uint64")
		}
		grp, err := r.readByte()
		if err != nil {
			return 0, err
		}
		v |= uint64(grp&0x7f) << shift
		if grp&0x80 == 0 {
			return v, nil
		}
	}
}

// readByte is ReadBits(8): the 8 bits from pos span at most two bytes.
func (r *Reader) readByte() (byte, error) {
	if r.nbit-r.pos < 8 {
		r.pos = r.nbit
		return 0, ErrOutOfData
	}
	i, used := r.pos/8, uint(r.pos%8)
	r.pos += 8
	if used == 0 {
		return r.buf[i], nil
	}
	return r.buf[i]<<used | r.buf[i+1]>>(8-used), nil
}

// ReadGamma consumes an Elias gamma code written by WriteGamma. The
// zero run is counted a byte at a time; a run of 64 zeros is rejected
// after consuming exactly those 64 bits.
func (r *Reader) ReadGamma() (uint64, error) {
	start := r.pos
	for {
		if r.pos >= r.nbit {
			return 0, ErrOutOfData
		}
		used := uint(r.pos % 8)
		avail := 8 - int(used)
		if rem := r.nbit - r.pos; rem < avail {
			avail = rem
		}
		// The unread bits of this byte, shifted to the top, cut to avail.
		b := r.buf[r.pos/8] << used & (0xff << uint(8-avail))
		lz := avail
		if b != 0 {
			lz = bits.LeadingZeros8(b)
		}
		if r.pos+lz-start > 63 {
			r.pos = start + 64
			return 0, errors.New("bits: gamma code too long")
		}
		r.pos += lz
		if b != 0 {
			r.pos++ // the terminating 1 bit
			break
		}
	}
	zeros := r.pos - start - 1
	rest, err := r.ReadBits(zeros)
	if err != nil {
		return 0, err
	}
	return 1<<uint(zeros) | rest, nil
}

// UintBits returns the number of bits needed to store values in [0, n),
// i.e. ceil(log2 n), with a minimum of 0 for n <= 1. It is the width used
// for fixed-size node-id fields given an n-node graph.
func UintBits(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// GammaLen returns the length in bits of the Elias gamma code for v >= 1.
func GammaLen(v uint64) int {
	return 2*bits.Len64(v) - 1
}

// UvarintLen returns the length in bits of the varint code for v.
func UvarintLen(v uint64) int {
	n := 8
	for v >= 0x80 {
		v >>= 7
		n += 8
	}
	return n
}

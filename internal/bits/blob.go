package bits

import (
	"encoding/binary"
	"fmt"
)

// WriteBlob appends a length-prefixed sub-stream: a uvarint bit count
// followed by the first nbit bits of buf. It lets independently encoded
// tables (e.g. the per-node blobs of labeled.EncodeTable) be embedded
// verbatim in an outer stream and recovered bit-exactly. On a
// byte-aligned writer the payload is copied; otherwise it moves 64 bits
// per WriteBits call.
func (w *Writer) WriteBlob(buf []byte, nbit int) {
	if nbit < 0 || (nbit+7)/8 > len(buf) {
		panic(fmt.Sprintf("bits: WriteBlob of %d bits over %d bytes", nbit, len(buf)))
	}
	w.WriteUvarint(uint64(nbit))
	full := nbit / 8
	rem := nbit % 8
	if w.nbit%8 == 0 {
		w.buf = append(w.buf, buf[:full]...)
		w.nbit += 8 * full
		if rem > 0 {
			w.buf = append(w.buf, buf[full]&(0xff<<uint(8-rem)))
			w.nbit += rem
		}
		return
	}
	k := 0
	for ; k+8 <= full; k += 8 {
		w.WriteBits(binary.BigEndian.Uint64(buf[k:]), 64)
	}
	for ; k < full; k++ {
		w.writeByte(buf[k])
	}
	if rem > 0 {
		w.WriteBits(uint64(buf[full]>>uint(8-rem)), rem)
	}
}

// ReadBlob reads a sub-stream written by WriteBlob, returning the
// payload bytes (zero-padded to a byte boundary) and its exact bit
// length. The declared length is checked against the remaining stream
// before allocating.
func (r *Reader) ReadBlob() ([]byte, int, error) {
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
	rem := n % 8
	if r.pos%8 == 0 {
		i := r.pos / 8
		copy(buf, r.buf[i:i+full])
		if rem > 0 {
			buf[full] = r.buf[i+full] & (0xff << uint(8-rem))
		}
		r.pos += n
		return buf, n, nil
	}
	// The length check above guarantees these reads stay in the stream.
	k := 0
	for ; k+8 <= full; k += 8 {
		v, _ := r.ReadBits(64)
		binary.BigEndian.PutUint64(buf[k:], v)
	}
	for ; k < full; k++ {
		buf[k], _ = r.readByte()
	}
	if rem > 0 {
		v, _ := r.ReadBits(rem)
		buf[full] = byte(v << uint(8-rem))
	}
	return buf, n, nil
}

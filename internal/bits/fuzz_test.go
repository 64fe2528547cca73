package bits

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// A stream program is the fuzz input of FuzzBitStream: one cut byte
// (where the truncated read pass ends its stream), then a sequence of
// ops, each a kind byte followed by its operands. Operand bytes past
// the end of the input read as zero.
const (
	opBit = iota
	opBits
	opUvarint
	opGamma
	opBlob
	numOps
)

const maxProgramOps = 256

type streamOp struct {
	kind int
	v    uint64 // the bit, the WriteBits value (high bits included), the uvarint or gamma value
	n    int    // the WriteBits width in [0, 64], or the blob's bit length
	blob []byte // (n+7)/8 payload bytes, bits past n included
}

type programReader struct{ data []byte }

func (p *programReader) byte() byte {
	if len(p.data) == 0 {
		return 0
	}
	b := p.data[0]
	p.data = p.data[1:]
	return b
}

func (p *programReader) word() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(p.byte())
	}
	return v
}

// parseProgram decodes fuzz bytes into a cut point and an op list.
func parseProgram(data []byte) (cut int, ops []streamOp) {
	p := &programReader{data: data}
	cut = int(p.byte())
	for len(p.data) > 0 && len(ops) < maxProgramOps {
		k := p.byte()
		o := streamOp{kind: int(k) % numOps}
		switch o.kind {
		case opBit:
			o.v = uint64(k>>7) & 1
		case opBits:
			o.n = int(p.byte()) % 65
			o.v = p.word()
		case opUvarint:
			shift := p.byte() % 64
			o.v = p.word() >> shift
		case opGamma:
			shift := p.byte() % 64
			if o.v = p.word() >> shift; o.v == 0 {
				o.v = 1
			}
		case opBlob:
			o.n = int(p.byte())
			o.blob = make([]byte, (o.n+7)/8)
			for i := range o.blob {
				o.blob[i] = p.byte()
			}
		}
		ops = append(ops, o)
	}
	return cut, ops
}

// programBytes is parseProgram's inverse for the seed corpus: opBit
// ops carry their bit in the kind byte's top bit, and the shift operand
// of uvarint and gamma ops is written as zero.
func programBytes(cut byte, ops ...streamOp) []byte {
	out := []byte{cut}
	word := func(v uint64) {
		for i := 56; i >= 0; i -= 8 {
			out = append(out, byte(v>>uint(i)))
		}
	}
	for _, o := range ops {
		switch o.kind {
		case opBit:
			k := byte(opBit)
			if o.v&1 == 1 {
				k = 130 // ≡ opBit mod numOps, with the top bit set
			}
			out = append(out, k)
		case opBits:
			out = append(out, opBits, byte(o.n))
			word(o.v)
		case opUvarint, opGamma:
			out = append(out, byte(o.kind), 0)
			word(o.v)
		case opBlob:
			out = append(out, opBlob, byte(o.n))
			out = append(out, o.blob...)
		}
	}
	return out
}

// bitWriter and bitReader are the method sets Writer/refWriter and
// Reader/refReader share, so one program drives both.
type bitWriter interface {
	Len() int
	Bytes() []byte
	WriteBit(bool)
	WriteBits(uint64, int)
	WriteUvarint(uint64)
	WriteGamma(uint64)
	WriteBlob([]byte, int)
}

type bitReader interface {
	Remaining() int
	ReadBit() (bool, error)
	ReadBits(int) (uint64, error)
	ReadUvarint() (uint64, error)
	ReadGamma() (uint64, error)
	ReadBlob() ([]byte, int, error)
}

func writeOp(w bitWriter, o streamOp) {
	switch o.kind {
	case opBit:
		w.WriteBit(o.v == 1)
	case opBits:
		w.WriteBits(o.v, o.n)
	case opUvarint:
		w.WriteUvarint(o.v)
	case opGamma:
		w.WriteGamma(o.v)
	case opBlob:
		w.WriteBlob(o.blob, o.n)
	}
}

// readResult is everything observable about one read.
type readResult struct {
	v         uint64
	blob      []byte
	err       string
	remaining int
}

func readOp(r bitReader, o streamOp) readResult {
	var res readResult
	var err error
	switch o.kind {
	case opBit:
		var b bool
		b, err = r.ReadBit()
		if b {
			res.v = 1
		}
	case opBits:
		res.v, err = r.ReadBits(o.n)
	case opUvarint:
		res.v, err = r.ReadUvarint()
	case opGamma:
		res.v, err = r.ReadGamma()
	case opBlob:
		var n int
		res.blob, n, err = r.ReadBlob()
		res.v = uint64(n)
	}
	if err != nil {
		res.err = err.Error()
	}
	res.remaining = r.Remaining()
	return res
}

func (a readResult) equal(b readResult) bool {
	return a.v == b.v && bytes.Equal(a.blob, b.blob) && a.err == b.err && a.remaining == b.remaining
}

// written is what a faithful read of o returns: its value (a
// WriteBits value cut to its width, a blob's bit length) and, for a
// blob, the payload with the bits past its length cleared.
func written(o streamOp) (uint64, []byte) {
	switch o.kind {
	case opBits:
		return o.v & (1<<uint(o.n) - 1), nil
	case opBlob:
		blob := append([]byte(nil), o.blob...)
		if rem := o.n % 8; rem > 0 {
			blob[len(blob)-1] &= 0xff << uint(8-rem)
		}
		return uint64(o.n), blob
	}
	return o.v, nil
}

// FuzzBitStream runs a byte-driven program of writes through Writer
// and the bit-at-a-time reference, requiring the same Len() after every
// op and the same Bytes() at the end. Both readers then read the stream
// back three ways: in program order (each value must be the one
// written), the same ops again past the end, and rotated over a stream
// truncated by the cut byte (reads misaligned with the writes, running
// out part-way through a code). Values, error text and Remaining() must
// match read for read.
func FuzzBitStream(f *testing.F) {
	for _, seed := range bitStreamSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cut, ops := parseProgram(data)
		var w Writer
		for i := 0; i < 4; i++ { // dirty the buffer Reset keeps
			w.WriteBits(^uint64(0), 64)
		}
		w.Reset()
		ref := &refWriter{}
		for i, o := range ops {
			writeOp(&w, o)
			writeOp(ref, o)
			if w.Len() != ref.Len() {
				t.Fatalf("op %d %+v: writer at %d bits, reference at %d", i, o, w.Len(), ref.Len())
			}
		}
		// Written bytes are never revisited, so a divergence at any op
		// is still visible here.
		if !bytes.Equal(w.Bytes(), ref.Bytes()) {
			t.Fatalf("writer %x, reference %x", w.Bytes(), ref.Bytes())
		}

		var r Reader
		r.Reset(w.Bytes(), w.Len())
		rr := &refReader{buf: ref.Bytes(), nbit: ref.Len()}
		for pass := 0; pass < 2; pass++ {
			for i, o := range ops {
				got, want := readOp(&r, o), readOp(rr, o)
				if !got.equal(want) {
					t.Fatalf("pass %d op %d %+v: reader %+v, reference %+v", pass, i, o, got, want)
				}
				if v, blob := written(o); pass == 0 && (want.err != "" || want.v != v || !bytes.Equal(want.blob, blob)) {
					t.Fatalf("op %d %+v: read back %+v", i, o, want)
				}
			}
		}

		if len(ops) == 0 {
			return
		}
		nbit := w.Len() - cut%(w.Len()+1)
		r.Reset(w.Bytes(), nbit)
		rr = &refReader{buf: ref.Bytes(), nbit: nbit}
		for k := 0; k < 2*len(ops); k++ {
			o := ops[(k+cut)%len(ops)]
			if got, want := readOp(&r, o), readOp(rr, o); !got.equal(want) {
				t.Fatalf("truncated to %d bits, read %d %+v: reader %+v, reference %+v", nbit, k, o, got, want)
			}
		}
	})
}

// bitStreamSeeds covers every op at its edges: widths 0/1/7/8/9/63/64
// with garbage above the width, uvarint group boundaries, gamma codes
// on both sides of the one-call limit (2·len-1 ≤ 64), aligned and
// unaligned blobs, and streams whose misaligned reads overflow a
// uvarint or run a gamma code past 63 zeros.
func bitStreamSeeds() [][]byte {
	bit := func(b uint64) streamOp { return streamOp{kind: opBit, v: b} }
	wide := func(v uint64, n int) streamOp { return streamOp{kind: opBits, v: v, n: n} }
	uv := func(v uint64) streamOp { return streamOp{kind: opUvarint, v: v} }
	gamma := func(v uint64) streamOp { return streamOp{kind: opGamma, v: v} }
	blob := func(n int) streamOp {
		o := streamOp{kind: opBlob, n: n, blob: make([]byte, (n+7)/8)}
		for i := range o.blob {
			o.blob[i] = byte(0xa5 + 37*i)
		}
		if len(o.blob) > 0 {
			o.blob[len(o.blob)-1] = 0xff // set bits past n must not leak
		}
		return o
	}
	ones := ^uint64(0)
	return [][]byte{
		programBytes(0),
		programBytes(3, bit(1), bit(0), bit(1), wide(ones, 0), wide(ones, 1), wide(ones, 7),
			wide(0x1ff, 8), wide(0xabc, 9), wide(ones, 63), wide(1<<63|5, 64), bit(1)),
		programBytes(7, uv(0), uv(127), uv(128), bit(1), uv(1<<14), uv(1<<63), uv(ones)),
		programBytes(11, gamma(1), gamma(2), gamma(3), bit(0), gamma(1<<31), gamma(1<<32),
			gamma(1<<63), gamma(ones)),
		programBytes(5, blob(0), blob(8), blob(13), blob(200), bit(1), blob(8), blob(77), wide(5, 3), blob(255)),
		programBytes(2, wide(ones, 64), wide(ones, 64), uv(5)),
		programBytes(1, gamma(9), wide(0, 64), wide(0, 64), bit(1)),
	}
}

// TestRegenFuzzCorpus rewrites the checked-in seed corpus. Regenerate:
//
//	REGEN_FUZZ_CORPUS=1 go test ./internal/... -run TestRegenFuzzCorpus
func TestRegenFuzzCorpus(t *testing.T) {
	if os.Getenv("REGEN_FUZZ_CORPUS") == "" {
		t.Skip("set REGEN_FUZZ_CORPUS=1 to rewrite testdata/fuzz seed corpora")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzBitStream")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range bitStreamSeeds() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%03d", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

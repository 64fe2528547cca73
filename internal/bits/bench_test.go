package bits

import (
	"fmt"
	"testing"
)

// benchWidths are the field widths the benchmarks sweep: a flag, a
// uvarint payload group, a whole byte, and a float64.
var benchWidths = []int{1, 7, 8, 64}

// benchStreamBits bounds the stream a benchmark writes or reads before
// it starts over, so every call lands at a varying bit offset without
// the buffer growing with b.N.
const benchStreamBits = 1 << 16

// BenchmarkWriteBits reports the cost of one WriteBits call.
func BenchmarkWriteBits(b *testing.B) {
	for _, n := range benchWidths {
		b.Run(fmt.Sprintf("width=%d", n), func(b *testing.B) {
			var w Writer
			v := uint64(0x9e3779b97f4a7c15)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if w.Len()+n > benchStreamBits {
					w.Reset()
				}
				w.WriteBits(v, n)
				v = v<<1 | v>>63
			}
		})
	}
}

// BenchmarkReadBits reports the cost of one ReadBits call.
func BenchmarkReadBits(b *testing.B) {
	for _, n := range benchWidths {
		b.Run(fmt.Sprintf("width=%d", n), func(b *testing.B) {
			var w Writer
			v := uint64(0x9e3779b97f4a7c15)
			for w.Len()+n <= benchStreamBits {
				w.WriteBits(v, n)
				v = v<<1 | v>>63
			}
			r := NewReader(w.Bytes(), w.Len())
			var sink uint64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if r.Remaining() < n {
					r.Reset(w.Bytes(), w.Len())
				}
				got, err := r.ReadBits(n)
				if err != nil {
					b.Fatal(err)
				}
				sink += got
			}
			_ = sink
		})
	}
}

// BenchmarkUvarintRoundTrip reports one WriteUvarint plus one
// ReadUvarint, over values of one to five groups after a 3-bit field
// so the groups straddle bytes.
func BenchmarkUvarintRoundTrip(b *testing.B) {
	vals := []uint64{5, 300, 70000, 1 << 22, 1 << 30}
	var w Writer
	var r Reader
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v := vals[i%len(vals)]
		w.Reset()
		w.WriteBits(5, 3)
		w.WriteUvarint(v)
		r.Reset(w.Bytes(), w.Len())
		if _, err := r.ReadBits(3); err != nil {
			b.Fatal(err)
		}
		if got, err := r.ReadUvarint(); err != nil || got != v {
			b.Fatalf("ReadUvarint = %d, %v; want %d", got, err, v)
		}
	}
}

package frame

import (
	"testing"

	"compactrouting/internal/bits"
)

// framePairs is the batch size the benchmarks and allocation pins use:
// the 16-query frames the serving plane's clients send.
const framePairs = 16

// benchRequest is a 16-pair request over a 1024-node network, so most
// node ids take two uvarint groups.
func benchRequest() *RouteRequest {
	q := &RouteRequest{Scheme: 2}
	for i := 0; i < framePairs; i++ {
		q.Pairs = append(q.Pairs, Pair{Src: int32(61 * i % 1024), Dst: int32((1000 - 37*i) % 1024)})
	}
	return q
}

// benchResponse answers benchRequest: every result OK, half of them
// cache hits, with non-trivial float costs.
func benchResponse() *RouteResponse {
	p := &RouteResponse{}
	for i := 0; i < framePairs; i++ {
		p.Results = append(p.Results, RouteResult{
			Status:        StatusOK,
			Cached:        i%2 == 0,
			Hops:          int32(3 + i%9),
			MaxHeaderBits: int32(40 + 7*i),
			Cost:          1.5 + 0.37*float64(i),
			Optimal:       1.25 + 0.31*float64(i),
		})
	}
	return p
}

func encodePayload(enc func(*bits.Writer)) []byte {
	var w bits.Writer
	enc(&w)
	return w.Bytes()
}

// TestCodecAllocs pins the serving plane's codec steps at zero
// allocations once their buffers are warm: RouteResponse.Encode into a
// reused Writer, and both DecodeInto calls into reused destinations.
func TestCodecAllocs(t *testing.T) {
	resp := benchResponse()
	var w bits.Writer
	var r bits.Reader
	var gotResp RouteResponse
	respPayload := encodePayload(resp.Encode)
	var gotReq RouteRequest
	reqPayload := encodePayload(benchRequest().Encode)
	cases := []struct {
		name string
		f    func()
	}{
		{"RouteResponse.Encode", func() { w.Reset(); resp.Encode(&w) }},
		{"RouteResponse.DecodeInto", func() {
			if err := gotResp.DecodeInto(respPayload, &r); err != nil {
				t.Fatal(err)
			}
		}},
		{"RouteRequest.DecodeInto", func() {
			if err := gotReq.DecodeInto(reqPayload, &r); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(200, c.f); n != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", c.name, n)
		}
	}
}

func BenchmarkRouteResponseEncode(b *testing.B) {
	p := benchResponse()
	var w bits.Writer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Reset()
		p.Encode(&w)
	}
	b.SetBytes(int64(len(w.Bytes())))
}

func BenchmarkRouteResponseDecodeInto(b *testing.B) {
	payload := encodePayload(benchResponse().Encode)
	var p RouteResponse
	var r bits.Reader
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := p.DecodeInto(payload, &r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRouteRequestEncode(b *testing.B) {
	q := benchRequest()
	var w bits.Writer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Reset()
		q.Encode(&w)
	}
	b.SetBytes(int64(len(w.Bytes())))
}

func BenchmarkRouteRequestDecodeInto(b *testing.B) {
	payload := encodePayload(benchRequest().Encode)
	var q RouteRequest
	var r bits.Reader
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := q.DecodeInto(payload, &r); err != nil {
			b.Fatal(err)
		}
	}
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"compactrouting/internal/bits"
	"compactrouting/internal/frame"
	"compactrouting/internal/server"
)

// conns is the number of client connections per phase (one per core
// of the reference box).
const conns = 2

// servers hosts one engine on loopback over both protocols, the way
// routed does.
type servers struct {
	tcp      *server.TCPServer
	http     *http.Server
	tcpAddr  string
	httpAddr string
	wg       sync.WaitGroup
}

func startServers(e *server.Engine) (*servers, error) {
	tl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tl.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &servers{
		tcp:      server.NewTCPServer(e),
		http:     &http.Server{Handler: e.Handler()},
		tcpAddr:  tl.Addr().String(),
		httpAddr: hl.Addr().String(),
	}
	s.wg.Add(2)
	go func() {
		defer s.wg.Done()
		s.tcp.Serve(tl)
	}()
	go func() {
		defer s.wg.Done()
		s.http.Serve(hl)
	}()
	return s, nil
}

// stop shuts both servers down and waits for their accept loops.
func (s *servers) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.tcp.Shutdown(ctx)
	s.http.Shutdown(ctx)
	s.wg.Wait()
}

// frameConn is one frame-protocol client connection with reused
// buffers.
type frameConn struct {
	c       net.Conn
	br      *bufio.Reader
	w       bits.Writer
	rd      bits.Reader
	out     []byte
	hdr     [frame.HeaderSize]byte
	payload []byte
	req     frame.RouteRequest
	resp    frame.RouteResponse
	id      uint64
}

func dialFrame(addr string) (*frameConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	return &frameConn{c: c, br: bufio.NewReaderSize(c, 32<<10)}, nil
}

// route sends one route frame and returns the decoded answers (valid
// until the next call).
func (fc *frameConn) route(scheme int, pairs []frame.Pair) ([]frame.RouteResult, error) {
	fc.req.Scheme, fc.req.Pairs = scheme, pairs
	fc.w.Reset()
	fc.req.Encode(&fc.w)
	fc.id++
	var err error
	if fc.out, err = frame.AppendFrame(fc.out[:0], frame.TypeRouteRequest, fc.id, fc.w.Bytes()); err != nil {
		return nil, err
	}
	if _, err := fc.c.Write(fc.out); err != nil {
		return nil, fmt.Errorf("write frame: %w", err)
	}
	if _, err := io.ReadFull(fc.br, fc.hdr[:]); err != nil {
		return nil, fmt.Errorf("read frame: %w", err)
	}
	h, err := frame.ParseHeader(fc.hdr[:])
	if err != nil {
		return nil, err
	}
	if int(h.PayloadLen) > cap(fc.payload) {
		fc.payload = make([]byte, h.PayloadLen)
	}
	fc.payload = fc.payload[:h.PayloadLen]
	if _, err := io.ReadFull(fc.br, fc.payload); err != nil {
		return nil, fmt.Errorf("read frame: %w", err)
	}
	switch {
	case h.Type == frame.TypeError:
		msg, _ := frame.DecodeError(fc.payload, &fc.rd)
		return nil, fmt.Errorf("error frame: %s", msg)
	case h.Type != frame.TypeRouteResponse || h.RequestID != fc.id:
		return nil, fmt.Errorf("unexpected frame type %d id %d", h.Type, h.RequestID)
	}
	if err := fc.resp.DecodeInto(fc.payload, &fc.rd); err != nil {
		return nil, err
	}
	if len(fc.resp.Results) != len(pairs) {
		return nil, fmt.Errorf("%d answers for %d queries", len(fc.resp.Results), len(pairs))
	}
	return fc.resp.Results, nil
}

// span is one client-side request record of a traced run: which
// connection sent which frame of which phase, and when (nanoseconds
// since the run began).
type span struct {
	phase      string
	conn       int
	frame      int
	scheme     int
	start, end int64
}

// phaseResult is what one serve phase measured.
type phaseResult struct {
	queries int
	elapsed time.Duration
	// latUS is the per-request latency in µs: the round trip in a
	// closed loop, the time since the scheduled send in an open loop.
	latUS []float64
	// lagUS is how late the open-loop generator sent each frame.
	lagUS []float64
	spans []span
}

func (p *phaseResult) merge(q phaseResult) {
	p.queries += q.queries
	p.latUS = append(p.latUS, q.latUS...)
	p.lagUS = append(p.lagUS, q.lagUS...)
	p.spans = append(p.spans, q.spans...)
}

// qps is the phase's answered queries per second.
func (p phaseResult) qps() float64 { return float64(p.queries) / p.elapsed.Seconds() }

// framePhase drives the frame protocol for dur over conns
// connections; connection c sends frames first+c, first+c+conns, ... of
// the salted stream. rate <= 0 is a closed loop; otherwise frame
// first+i is due at i·framePairs/rate seconds after the start and its
// latency counts from then, so a stall is charged to every frame it
// delays. Every answer goes through the checker; keep, when non-nil,
// receives each frame's answers first. minFrames keeps the loop going
// past dur until that many frames were sent.
type framePhase struct {
	name      string
	addr      string
	st        *stream
	ck        *checker
	salt      uint64
	first     int // first frame index
	dur       time.Duration
	rate      float64
	traced    bool // record spans and closed-loop latency
	minFrames int
	epoch     time.Time // span time origin
	keep      func(i int, results []frame.RouteResult)
}

func (fp framePhase) run() (phaseResult, error) {
	parts := make([]phaseResult, conns)
	errs := make([]error, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			parts[c], errs[c] = fp.conn(c, start)
		}(c)
	}
	wg.Wait()
	out := phaseResult{elapsed: time.Since(start)}
	for c := range parts {
		out.merge(parts[c])
	}
	return out, errors.Join(errs...)
}

func (fp framePhase) conn(c int, start time.Time) (phaseResult, error) {
	var res phaseResult
	fc, err := dialFrame(fp.addr)
	if err != nil {
		return res, err
	}
	defer fc.c.Close()
	deadline := start.Add(fp.dur)
	var (
		pairs    []frame.Pair
		interval time.Duration
	)
	if fp.rate > 0 {
		interval = time.Duration(float64(framePairs) / fp.rate * float64(time.Second))
	}
	for i := c; ; i += conns {
		var due time.Time
		if interval > 0 {
			due = start.Add(time.Duration(i) * interval)
			if !due.Before(deadline) {
				break
			}
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
		} else if i >= fp.minFrames && time.Now().After(deadline) {
			break
		}
		scheme, ps := fp.st.frame(fp.salt, fp.first+i, pairs)
		pairs = ps
		sent := time.Now()
		results, err := fc.route(scheme, pairs)
		done := time.Now()
		if err != nil {
			fp.ck.refused(len(pairs), err)
			return res, err
		}
		if fp.keep != nil {
			fp.keep(fp.first+i, results)
		}
		for j, r := range results {
			fp.ck.frameAnswer(scheme, pairs[j], r)
		}
		res.queries += len(pairs)
		if interval > 0 {
			res.latUS = append(res.latUS, us(done.Sub(due)))
			res.lagUS = append(res.lagUS, us(sent.Sub(due)))
		}
		if fp.traced {
			if interval == 0 {
				res.latUS = append(res.latUS, us(done.Sub(sent)))
			}
			res.spans = append(res.spans, span{
				phase: fp.name, conn: c, frame: fp.first + i, scheme: scheme,
				start: int64(sent.Sub(fp.epoch)), end: int64(done.Sub(fp.epoch)),
			})
		}
	}
	return res, nil
}

// httpPhase drives POST /route for dur, closed loop, over conns
// keep-alive connections. Queries follow the salted stream frame by
// frame, one request per query.
type httpPhase struct {
	addr   string
	st     *stream
	ck     *checker
	names  []string
	salt   uint64
	first  int // first frame index
	dur    time.Duration
	traced bool // record spans and latency
	epoch  time.Time
}

func (hp httpPhase) run() (phaseResult, error) {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	parts := make([]phaseResult, conns)
	errs := make([]error, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			parts[c], errs[c] = hp.conn(client, c, start)
		}(c)
	}
	wg.Wait()
	out := phaseResult{elapsed: time.Since(start)}
	for c := range parts {
		out.merge(parts[c])
	}
	return out, errors.Join(errs...)
}

func (hp httpPhase) conn(client *http.Client, c int, start time.Time) (phaseResult, error) {
	var (
		res   phaseResult
		pairs []frame.Pair
		body  []byte
	)
	url := "http://" + hp.addr + "/route"
	deadline := start.Add(hp.dur)
	for i := c; time.Now().Before(deadline); i += conns {
		var scheme int
		scheme, pairs = hp.st.frame(hp.salt, hp.first+i, pairs)
		for _, p := range pairs {
			body = append(body[:0], `{"scheme":"`...)
			body = append(body, hp.names[scheme]...)
			body = append(body, `","src":`...)
			body = strconv.AppendInt(body, int64(p.Src), 10)
			body = append(body, `,"dst":`...)
			body = strconv.AppendInt(body, int64(p.Dst), 10)
			body = append(body, '}')
			sent := time.Now()
			code, ans, err := post(client, url, body)
			done := time.Now()
			if err != nil {
				hp.ck.refused(1, err)
				return res, err
			}
			hp.ck.httpAnswer(scheme, p, code, ans)
			res.queries++
			if hp.traced {
				res.latUS = append(res.latUS, us(done.Sub(sent)))
				res.spans = append(res.spans, span{
					phase: "http", conn: c, frame: hp.first + i, scheme: scheme,
					start: int64(sent.Sub(hp.epoch)), end: int64(done.Sub(hp.epoch)),
				})
			}
		}
	}
	return res, nil
}

// post sends one JSON query and decodes the answer.
func post(client *http.Client, url string, body []byte) (int, server.RouteResult, error) {
	var ans server.RouteResult
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, ans, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&ans); err != nil {
			return 0, ans, fmt.Errorf("decode answer: %w", err)
		}
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, ans, nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

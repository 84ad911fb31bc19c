package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/grh"
	"repro/internal/protocol"
	"repro/internal/services"
	"repro/internal/snoop"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's own code around a call into the program. Spans of one
// request share Req; Parent is the innermost enclosing span of the same
// request (-1 for none), filled in when the spans are written out.
type span struct {
	Req    int64  `json:"req"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Note   string `json:"note,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory. Tracing is on only while on is set;
// the traced phase sends one event at a time and sets req before each,
// so every span recorded inside a request's interval belongs to it.
type recorder struct {
	t0  time.Time
	on  atomic.Bool
	req atomic.Int64

	mu       sync.Mutex
	spans    []span
	rules    []float64 // POST /engine/rules handler times in ms, traced or not
	captured []exchange
	wire     [][2][]byte // raw eca:request and log:answers bodies, decoded after the run
}

// exchange is one recorded component request and its answer.
type exchange struct {
	req *protocol.Request
	ans *protocol.Answer
}

// maxCaptured bounds the exchanges kept for replay.
const maxCaptured = 4000

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) record(layer string, start, end time.Time, note string) {
	if !r.on.Load() {
		return
	}
	s := span{Req: r.req.Load(), Layer: layer, Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(), Note: note}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) capture(req *protocol.Request, ans *protocol.Answer) {
	if !r.on.Load() || req == nil || ans == nil {
		return
	}
	r.mu.Lock()
	if len(r.captured) < maxCaptured {
		r.captured = append(r.captured, exchange{req, ans})
	}
	r.mu.Unlock()
}

// middleware wraps the system's Mux: it times POST /events, POST
// /engine/rules and the component-service endpoints, and captures the
// protocol documents the service endpoints exchange.
type middleware struct{ rec *recorder }

func (m *middleware) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p := r.URL.Path
		var layer string
		switch {
		case p == "/events" && r.Method == http.MethodPost:
			layer = "system.events"
		case p == "/engine/rules" && r.Method == http.MethodPost:
			layer = "system.rules"
		case strings.HasPrefix(p, "/services/") || strings.HasPrefix(p, "/opaque/") || p == "/engine/detect":
			layer = "services.http" + p
		default:
			h.ServeHTTP(w, r)
			return
		}
		capture := m.rec.on.Load() && strings.HasPrefix(p, "/services/")
		var reqBody []byte
		if capture {
			reqBody, _ = io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(reqBody))
			cw := &captureWriter{ResponseWriter: w}
			w = cw
			defer func() { m.rec.captureWire(reqBody, cw.buf.Bytes()) }()
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		if layer == "system.rules" {
			m.rec.mu.Lock()
			m.rec.rules = append(m.rec.rules, ms(end.Sub(start)))
			m.rec.mu.Unlock()
		}
		m.rec.record(layer, start, end, "")
	})
}

type captureWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (c *captureWriter) Write(p []byte) (int, error) {
	c.buf.Write(p)
	return c.ResponseWriter.Write(p)
}

// captureWire keeps a service endpoint's eca:request and log:answers
// bodies; they are decoded after the run, so decoding adds nothing to
// the request being timed.
func (r *recorder) captureWire(reqBody, ansBody []byte) {
	r.mu.Lock()
	if len(r.wire) < maxCaptured {
		r.wire = append(r.wire, [2][]byte{reqBody, ansBody})
	}
	r.mu.Unlock()
}

// exchanges returns every captured request/answer pair, decoding the
// wire bodies; bodies that do not decode (e.g. error replies) are skipped.
func (r *recorder) exchanges() []exchange {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]exchange(nil), r.captured...)
	for _, w := range r.wire {
		req, err := decodeRequest(w[0])
		if err != nil {
			continue
		}
		ans, err := decodeAnswers(w[1])
		if err != nil {
			continue
		}
		out = append(out, exchange{req, ans})
	}
	return out
}

// roundTripper times every GRH HTTP call over the transport the GRH uses
// by default, and notes whether the connection was new or reused.
type roundTripper struct {
	rec  *recorder
	base http.RoundTripper
}

func (t *roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	note := "new"
	trace := &httptrace.ClientTrace{GotConn: func(i httptrace.GotConnInfo) {
		if i.Reused {
			note = "reused"
		}
	}}
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), trace))
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.rec.record("grh.roundtrip", start, time.Now(), note)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() { t.rec.record("grh.roundtrip", start, time.Now(), note) }}
	return resp, nil
}

// timedBody ends the round-trip span when the GRH has read the answer.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// langShort names a component language by its last path element.
func langShort(ns string) string {
	switch ns {
	case services.MatcherNS:
		return "matcher"
	case snoop.NS:
		return "snoop"
	case services.XQueryNS:
		return "xquery"
	case services.DatalogNS:
		return "datalog"
	case services.TestNS:
		return "test"
	case services.ActionNS:
		return "action"
	}
	return filepath.Base(ns)
}

// instrument installs the traced run's hooks through the program's public
// hook points: a timing RoundTripper via GRH.SetClient (same transport and
// timeout as the GRH's default client), and every in-process service
// re-registered through GRH.Register with a timing wrapper around Handle.
func instrument(g *grh.GRH, rec *recorder) error {
	g.SetClient(&http.Client{Timeout: grh.DefaultTimeout, Transport: &roundTripper{rec: rec, base: http.DefaultTransport}})
	for _, lang := range g.Languages() {
		d, ok := g.Lookup(lang)
		if !ok || d.Local == nil {
			continue
		}
		inner, layer := d.Local, "services.handle."+langShort(lang)
		wrapped := *d
		wrapped.Local = grh.ServiceFunc(func(req *protocol.Request) (*protocol.Answer, error) {
			start := time.Now()
			ans, err := inner.Handle(req)
			rec.record(layer, start, time.Now(), "")
			if err == nil {
				rec.capture(req, ans)
			}
			return ans, err
		})
		if err := g.Register(wrapped); err != nil {
			return err
		}
	}
	return nil
}

// writeSpans fills in each span's parent and writes them out as JSON.
func (r *recorder) writeSpans(path string) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	linkParents(spans)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// linkParents sets each span's Parent to the innermost enclosing span of
// the same request. spans is reordered by request and start time.
func linkParents(spans []span) {
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Req != b.Req {
			return a.Req < b.Req
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.End > b.End
	})
	var stack []int
	for i := range spans {
		spans[i].Parent = -1
		for len(stack) > 0 {
			top := spans[stack[len(stack)-1]]
			if top.Req == spans[i].Req && top.End >= spans[i].End {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			spans[i].Parent = stack[len(stack)-1]
		}
		stack = append(stack, i)
	}
}

// selfTimes returns, per span index, its duration minus the part of its
// interval its direct children cover. linkParents must have run.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		iv := kids[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, curS, curE int64 = 0, -1, -1
		for _, x := range iv {
			if x[0] > curE {
				if curE > curS {
					covered += curE - curS
				}
				curS, curE = x[0], x[1]
			} else if x[1] > curE {
				curE = x[1]
			}
		}
		if curE > curS {
			covered += curE - curS
		}
		out[i] = s.dur() - time.Duration(covered)
	}
	return out
}

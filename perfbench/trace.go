package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing is done from outside the program: the benchmark wraps the
// handlers the coordinator and the workers return, and carries a request
// id across the two network hops in a header. The load client stamps the
// id from the request's context; the coordinator hands its incoming
// request's context to the forward it makes, so a transport that copies
// the id from context to header carries it on to the worker.

// reqIDHeader carries the benchmark's request id in traced runs.
const reqIDHeader = "X-Perfbench-Request"

type reqIDKey struct{}

// idTransport copies the request id on a request's context into its
// header. Requests without one (registrations, lease renewals, untraced
// load) pass through untouched.
type idTransport struct{ base http.RoundTripper }

func (t idTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(reqIDKey{}).(int64); ok {
		r = r.Clone(r.Context())
		r.Header.Set(reqIDHeader, strconv.FormatInt(id, 10))
	}
	return t.base.RoundTrip(r)
}

func (t idTransport) CloseIdleConnections() {
	if c, ok := t.base.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

var propagateOnce sync.Once

// propagateIDs makes the coordinator forward request ids to workers. Its
// per-worker clients send through http.DefaultTransport, so that is the
// one place to hook; it is done once, before any stack exists.
func propagateIDs() {
	propagateOnce.Do(func() { http.DefaultTransport = idTransport{http.DefaultTransport} })
}

// span is one handler's execution, as seen from outside the handler.
// worker is -1 for the coordinator's handler, else the worker's index.
type span struct {
	worker     int8
	req        int64
	start, end int64 // clock readings
}

func (s span) name() string {
	if s.worker < 0 {
		return "cluster.handler"
	}
	return "serve.handler"
}

func (s span) ms() float64 { return float64(s.end-s.start) / 1e6 }

// tracer keeps spans in memory until the run ends. It records only while
// on, so one stack can serve an untraced pass and then a traced one.
type tracer struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

// wrap times h for requests that carry an id, and passes the id on
// through the request context. worker is -1 for the coordinator. A nil
// tracer returns h itself.
func (t *tracer) wrap(worker int8, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		id, err := strconv.ParseInt(r.Header.Get(reqIDHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		start := now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), reqIDKey{}, id)))
		end := now()
		t.mu.Lock()
		t.spans = append(t.spans, span{worker: worker, req: id, start: start, end: end})
		t.mu.Unlock()
	})
}

// layered is one traced request split at the layer boundaries. Every
// duration is in ms; worker is the answering worker's handler.
type layered struct {
	hit                   bool
	client, coord, worker float64
	clientSelf, coordSelf float64
}

// requestSpans groups a request's server-side spans.
type requestSpans struct {
	coord   *span
	workers []span
}

func (t *tracer) byRequest() map[int64]*requestSpans {
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := make(map[int64]*requestSpans, len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		rs := idx[s.req]
		if rs == nil {
			rs = &requestSpans{}
			idx[s.req] = rs
		}
		if s.worker < 0 {
			rs.coord = s
		} else {
			rs.workers = append(rs.workers, *s)
		}
	}
	return idx
}

// layers joins the client's view of each successful traced request with
// the spans its handlers recorded. A request whose answering worker left
// no span (it cannot happen on a healthy stack) is skipped.
func (t *tracer) layers(outs []outcome) []layered {
	idx := t.byRequest()
	var out []layered
	for i := range outs {
		o := &outs[i]
		rs := idx[o.id]
		if o.failed || rs == nil || rs.coord == nil {
			continue
		}
		var ws *span
		for j := range rs.workers {
			if rs.workers[j].worker == o.worker {
				ws = &rs.workers[j]
			}
		}
		if ws == nil {
			continue
		}
		l := layered{hit: o.cacheHit, client: float64(o.done-o.sent) / 1e6, coord: rs.coord.ms(), worker: ws.ms()}
		l.clientSelf = l.client - l.coord
		l.coordSelf = l.coord - l.worker
		out = append(out, l)
	}
	return out
}

// selfRow is one line of the per-layer self-time table.
type selfRow struct {
	Layer    string  `json:"layer"`
	Requests int     `json:"requests"`
	P50Ms    float64 `json:"p50_ms"`
	MeanMs   float64 `json:"mean_ms"`
	Share    float64 `json:"share_of_client_time"`
}

// selfTable gives each layer's self time: its span minus the part its
// child span covers. The worker handler is a leaf seen from outside.
func selfTable(ls []layered) []selfRow {
	cols := []struct {
		name string
		get  func(layered) float64
	}{
		{"client.route", func(l layered) float64 { return l.clientSelf }},
		{"cluster.handler", func(l layered) float64 { return l.coordSelf }},
		{"serve.handler", func(l layered) float64 { return l.worker }},
	}
	var total float64
	for _, l := range ls {
		total += l.client
	}
	rows := make([]selfRow, 0, len(cols))
	for _, c := range cols {
		v := make([]float64, len(ls))
		var sum float64
		for i, l := range ls {
			v[i] = c.get(l)
			sum += v[i]
		}
		rows = append(rows, selfRow{
			Layer: c.name, Requests: len(ls), P50Ms: median(v),
			MeanMs: ratio(sum, float64(len(ls))), Share: ratio(sum, total),
		})
	}
	return rows
}

// spanJSON is a span as written to the trace file. Times are ns since the
// traced pass started; parent is the id of the enclosing span, -1 for a
// client span.
type spanJSON struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Request int64  `json:"request_id"`
	Worker  string `json:"worker,omitempty"`
}

// writeFile writes every span of the traced pass, client spans included,
// with the self-time table. passStart is the pass's first clock reading.
func (t *tracer) writeFile(path string, passStart int64, workers []string, outs []outcome, table []selfRow) error {
	idx := t.byRequest()
	var spans []spanJSON
	add := func(name string, worker int8, req, start, end int64, parent int) int {
		id := len(spans)
		sj := spanJSON{ID: id, Name: name, StartNS: start - passStart, EndNS: end - passStart, Parent: parent, Request: req}
		if worker >= 0 {
			sj.Worker = workers[worker]
		}
		spans = append(spans, sj)
		return id
	}
	for i := range outs {
		o := &outs[i]
		c := add("client.route", -1, o.id, o.sent, o.done, -1)
		rs := idx[o.id]
		if rs == nil || rs.coord == nil {
			continue
		}
		p := add(rs.coord.name(), -1, o.id, rs.coord.start, rs.coord.end, c)
		for _, w := range rs.workers {
			add(w.name(), w.worker, o.id, w.start, w.end, p)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = json.NewEncoder(bw).Encode(struct {
		Spans    []spanJSON `json:"spans"`
		SelfTime []selfRow  `json:"self_time"`
	}{spans, table})
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

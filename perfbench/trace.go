package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
)

// span is one timed call from the benchmark into a layer's public
// function. Parent is the span that caused it (0 for a root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

func (s span) seconds() float64 { return (s.End - s.Start) / 1e6 }

// tracer keeps spans and counters in memory; write dumps them when the
// run ends. A disabled tracer (nil, or switched off between the
// untraced repetitions of a traced run) records nothing and costs one
// atomic load per call.
type tracer struct {
	on     atomic.Bool
	origin time.Time

	mu       sync.Mutex
	nextID   int
	spans    []span
	open     map[int]span
	counters map[string]float64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), open: map[int]span{}, counters: map[string]float64{}}
}

// start opens a span and returns its id (0 when tracing is off).
func (t *tracer) start(name string, parent int) int {
	if t == nil || !t.on.Load() {
		return 0
	}
	now := float64(time.Since(t.origin).Nanoseconds()) / 1e3
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	id := t.nextID
	t.open[id] = span{ID: id, Parent: parent, Name: name, Start: now}
	return id
}

// end closes a span opened by start; id 0 is ignored.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := float64(time.Since(t.origin).Nanoseconds()) / 1e3
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.open[id]
	if !ok {
		return
	}
	delete(t.open, id)
	s.End = now
	t.spans = append(t.spans, s)
}

// do runs fn inside a span named name.
func (t *tracer) do(name string, parent int, fn func()) {
	id := t.start(name, parent)
	fn()
	t.end(id)
}

// add accumulates a counter recorded at a layer boundary.
func (t *tracer) add(name string, v float64) {
	if t == nil || !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.counters[name] += v
	t.mu.Unlock()
}

func (t *tracer) counter(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counters[name]
}

// named returns the closed spans called name, in closing order.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// total sums the durations of the spans called name, in seconds.
func (t *tracer) total(name string) float64 {
	var sum float64
	for _, s := range t.named(name) {
		sum += s.seconds()
	}
	return sum
}

// mean is the mean duration of the spans called name, in seconds.
func (t *tracer) mean(name string) float64 {
	ss := t.named(name)
	if len(ss) == 0 {
		return 0
	}
	return t.total(name) / float64(len(ss))
}

// medianOf is the median duration of the spans called name, in seconds.
func (t *tracer) medianOf(name string) float64 {
	var d []float64
	for _, s := range t.named(name) {
		d = append(d, s.seconds())
	}
	return median(d)
}

// summary folds the spans into per-name count, total and self time.
// Self time is a span's duration minus the part of its interval that
// its children cover.
func (t *tracer) summary() map[string]map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]map[string]float64{}
	for _, s := range t.spans {
		row := out[s.Name]
		if row == nil {
			row = map[string]float64{}
			out[s.Name] = row
		}
		row["count"]++
		row["total_ms"] += s.seconds() * 1e3
		row["self_ms"] += (s.End - s.Start - covered(s, children[s.ID])) / 1e3
	}
	return out
}

// covered measures the union of the children's intervals clipped to
// the parent's, in microseconds.
func covered(parent span, kids []span) float64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum, hi float64
	hi = parent.Start
	for _, k := range kids {
		lo, end := max(k.Start, hi), min(k.End, parent.End)
		if end > lo {
			sum += end - lo
			hi = end
		}
	}
	return sum
}

// write dumps every span, counter and the per-name summary to path.
func (t *tracer) write(path string) error {
	sum := t.summary()
	t.mu.Lock()
	doc := struct {
		Spans    []span                        `json:"spans"`
		Counters map[string]float64            `json:"counters"`
		Summary  map[string]map[string]float64 `json:"summary"`
	}{t.spans, t.counters, sum}
	b, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

type spanKey struct{}

// withSpan makes id the parent of spans opened from ctx.
func withSpan(ctx context.Context, id int) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanOf(ctx context.Context) int {
	id, _ := ctx.Value(spanKey{}).(int)
	return id
}

// tracedTransport times every coordinator request a worker makes, one
// span per attempt named after its endpoint, and counts the attempts
// that fail in transport (the ones service retries).
type tracedTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (tt tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	name := "service.rpc." + req.URL.Path[strings.LastIndexByte(req.URL.Path, '/')+1:]
	id := tt.t.start(name, spanOf(req.Context()))
	resp, err := tt.base.RoundTrip(req)
	tt.t.end(id)
	if err != nil && req.Context().Err() == nil {
		tt.t.add("service.rpc_retries", 1)
	}
	return resp, err
}

// tracedCache is the sweep.CellCache wrapper that times every Get and
// Put against the on-disk service.Cache and counts hits.
type tracedCache struct {
	t      *tracer
	parent int
	c      *service.Cache
}

func (tc *tracedCache) Get(key string) ([]byte, bool) {
	id := tc.t.start("service.Cache.Get", tc.parent)
	b, ok := tc.c.Get(key)
	tc.t.end(id)
	tc.t.add("service.cache_gets", 1)
	if ok {
		tc.t.add("service.cache_hits", 1)
	}
	return b, ok
}

func (tc *tracedCache) Put(key string, payload []byte) {
	id := tc.t.start("service.Cache.Put", tc.parent)
	tc.c.Put(key, payload)
	tc.t.end(id)
}

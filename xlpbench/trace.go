package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public entry point (or taken from an analyzer's public Timeline).
// Spans of one sweep or one request share a Trace id; Parent is 0 for
// the root of a trace.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Attr   string `json:"attr,omitempty"` // program or request class
	Start  int64  `json:"start_ns"`       // offset from the recorder's origin
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. It is safe for
// concurrent use; a nil *recorder records nothing.
type recorder struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	traces int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// newTrace allocates a trace id.
func (r *recorder) newTrace() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.traces++
	return r.traces
}

// open starts a span now and returns its id.
func (r *recorder) open(trace, parent int, name, attr string) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Trace: trace, ID: len(r.spans) + 1, Parent: parent, Name: name, Attr: attr, Start: now, End: now})
	return len(r.spans)
}

// close ends span id now.
func (r *recorder) close(id int) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records a finished span with explicit bounds.
func (r *recorder) add(trace, parent int, name, attr string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Trace: trace, ID: len(r.spans) + 1, Parent: parent, Name: name, Attr: attr,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))})
	return len(r.spans)
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per trace, the summed self time of each span name.
// A span's self time is its duration minus the part of it that its
// children's intervals cover.
func selfTimes(spans []span) map[int]map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[int]map[string]time.Duration{}
	for _, s := range spans {
		covered := int64(0)
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		cur := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		if out[s.Trace] == nil {
			out[s.Trace] = map[string]time.Duration{}
		}
		out[s.Trace][s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// rootsNamed returns the trace ids whose root span has the given name
// and attribute.
func rootsNamed(spans []span, name, attr string) []int {
	var ids []int
	for _, s := range spans {
		if s.Parent == 0 && s.Name == name && s.Attr == attr {
			ids = append(ids, s.Trace)
		}
	}
	return ids
}

// layerMedians returns, for the traces whose root span is named root
// with attribute attr, the median over traces of each layer's self time
// per trace, in milliseconds.
func layerMedians(spans []span, root, attr string) map[string]float64 {
	self := selfTimes(spans)
	per := map[string][]float64{}
	traces := rootsNamed(spans, root, attr)
	for _, t := range traces {
		for name := range self[t] {
			per[name] = nil
		}
	}
	for name := range per {
		for _, t := range traces {
			per[name] = append(per[name], ms(self[t][name]))
		}
	}
	out := map[string]float64{}
	for name, xs := range per {
		out[name] = median(xs)
	}
	return out
}

// spanDurations returns the durations of the spans with the given name.
func spanDurations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(time.Duration(s.End-s.Start)))
		}
	}
	return out
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one bench-side interval around a call into a layer. Spans are
// recorded from outside the system: around Engine.Run, around each round
// event's reconstructed execute/freeze/publish phases, around every layer
// probe and every HTTP request. Times are nanoseconds since the tracer's
// epoch; Parent is the ID of the span that caused this one, -1 at the root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Self is End-Start minus the part of that interval the span's
	// children cover; filled by fillSelf before the trace is written.
	Self int64 `json:"self_ns"`
}

// tracer keeps spans in memory until the benchmark ends. A nil *tracer is
// tracing switched off: every method is a no-op, so the untraced
// repetitions that produce the end-to-end metrics run the same code
// without recording anything.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	run   string
	spans []span
}

func newTracer(run string) *tracer {
	return &tracer{epoch: time.Now(), run: run}
}

// add records a finished span and returns its ID (-1 when tracing is off).
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Run: t.run, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// open reserves a span whose end is not known yet, so children recorded
// while it runs can name it as their parent; close sets its end.
func (t *tracer) open(name string, parent int, start time.Time) int {
	return t.add(name, parent, start, start)
}

func (t *tracer) close(id int, end time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = end.Sub(t.epoch).Nanoseconds()
	t.mu.Unlock()
}

// timed runs f inside a span.
func (t *tracer) timed(name string, parent int, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.add(name, parent, start, end)
	return end.Sub(start)
}

// fillSelf computes every span's self time: its duration minus the union
// of its children's intervals clipped to it. Children may overlap each
// other (concurrent HTTP requests under one section span); the union
// counts covered time once.
func fillSelf(spans []span) {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range spans {
		p := &spans[i]
		kids := children[p.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), p.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < reach {
				lo = reach
			}
			if hi > p.End {
				hi = p.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		p.Self = (p.End - p.Start) - covered
	}
}

// selfByName sums self time per span name, in milliseconds.
func selfByName(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += float64(s.Self) / 1e6
	}
	return out
}

// traceFile is the layout of out/trace.json: the last traced pass of each
// workload, keyed by workload name.
type traceFile struct {
	Workloads map[string]traceRun `json:"workloads"`
}

type traceRun struct {
	Run   string `json:"run"`
	Seed  uint64 `json:"seed"`
	Spans []span `json:"spans"`
}

// writeTrace stores this pass's spans under its workload in path, keeping
// the other workloads' entries, so running the workloads one process at a
// time still leaves one trace.json holding all of them.
func writeTrace(path, workload string, run traceRun) error {
	tf := traceFile{Workloads: map[string]traceRun{}}
	if data, err := os.ReadFile(path); err == nil {
		// An unreadable earlier file is simply replaced.
		if json.Unmarshal(data, &tf) != nil || tf.Workloads == nil {
			tf.Workloads = map[string]traceRun{}
		}
	}
	tf.Workloads[workload] = run
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one traced interval. Spans of one operation share Op; Parent is
// the ID of the span that caused this one (0 for an operation's root).
// Times are nanoseconds since the tracer started.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the workload ends. The benchmark
// records them around its own calls into each layer; the program itself
// is not instrumented.
type tracer struct {
	t0    time.Time
	ops   int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp returns a fresh operation identifier.
func (t *tracer) newOp() int {
	t.ops++
	return t.ops
}

// add records a span and returns its ID.
func (t *tracer) add(parent, op int, name string, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds()})
	return id
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover (overlapping children count
// once; a child is clipped to its parent).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, edge), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.EndNs - s.StartNs - covered
	}
	return self
}

// writeChromeTrace writes spans as Chrome trace-event JSON
// (chrome://tracing, Perfetto). Each operation gets its own track.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{Name: s.Name, Ph: "X", Ts: float64(s.StartNs) / 1e3, Dur: float64(s.EndNs-s.StartNs) / 1e3,
			Pid: 1, Tid: s.Op, Args: map[string]int{"id": s.ID, "parent": s.Parent, "op": s.Op}}
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

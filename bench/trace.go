package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into a
// layer. Parent is the index of the span that caused it (-1 for a root);
// the load generator is a single goroutine, so nesting is a stack.
type span struct {
	Name   string
	Parent int
	Start  time.Duration // since tracer start
	End    time.Duration
}

// tracer keeps spans in memory and writes them out once, at exit. When off
// (the untraced runs that feed the end-to-end metrics) begin still returns
// a working stop function, so callers time their work the same way in both
// kinds of run; only the recording differs.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns the function that closes it and reports
// its duration.
func (t *tracer) begin(name string) func() time.Duration {
	start := time.Now()
	if !t.on {
		return func() time.Duration { return time.Since(start) }
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: start.Sub(t.t0)})
	t.stack = append(t.stack, id)
	return func() time.Duration {
		end := time.Now()
		t.spans[id].End = end.Sub(t.t0)
		t.stack = t.stack[:len(t.stack)-1]
		return end.Sub(start)
	}
}

// selfTimes returns, per span name, the summed duration of its spans minus
// the part their child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.Name] += (s.End - s.Start) - child[i]
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// which Perfetto and chrome://tracing both open.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

func (t *tracer) writeChrome(path string) error {
	events := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = chromeEvent{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Pid: 1, Tid: 1,
			Args: map[string]int{"id": i, "parent": s.Parent},
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

package main

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"time"
)

// span is one timed call from the benchmark into a layer. Name is
// "<layer>.<call>"; Parent is the index of the enclosing span (-1 at the
// top level).
type span struct {
	Name       string
	Start, End time.Duration
	Parent     int
}

// tracer records host-clock spans around the benchmark's calls into each
// layer. A disabled tracer records nothing, so the untraced run pays one
// branch per call. Spans are kept in memory and exported once, at the end
// of the run, as Chrome-trace JSON under a host/ process name; they never
// share a file with the sim/ or exec/ domains the program itself traces.
type tracer struct {
	on    bool
	runID string
	epoch time.Time
	spans []span
	open  []int // stack of indices of spans not yet ended
}

func newTracer(on bool, runID string) *tracer {
	return &tracer{on: on, runID: runID, epoch: time.Now()}
}

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(name string) func() {
	if !t.on {
		return func() {}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.epoch), Parent: parent})
	t.open = append(t.open, idx)
	return func() {
		t.spans[idx].End = time.Since(t.epoch)
		t.open = t.open[:len(t.open)-1]
	}
}

// layerOf maps a span name to its layer: the text before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimesFrom sums, per layer, the duration of each span recorded at
// or after index from, minus the part its child spans cover.
func (t *tracer) selfTimesFrom(from int) map[string]time.Duration {
	self := map[string]time.Duration{}
	for _, s := range t.spans[from:] {
		self[layerOf(s.Name)] += s.End - s.Start
		if s.Parent >= from {
			self[layerOf(t.spans[s.Parent].Name)] -= s.End - s.Start
		}
	}
	return self
}

// durations lists the durations of the spans named name recorded at or
// after index from.
func (t *tracer) durations(from int, name string) []time.Duration {
	var ds []time.Duration
	for _, s := range t.spans[from:] {
		if s.Name == name {
			ds = append(ds, s.End-s.Start)
		}
	}
	return ds
}

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome exports the spans as Chrome-trace complete events, ordered
// by start time, in one process named host/<process>. Every span carries
// the run id and its own and its parent's span index.
func (t *tracer) writeChrome(w io.Writer, process string) error {
	events := []chromeEvent{{
		Name: "process_name", Ph: "M", PID: 1, TID: 1,
		Args: map[string]any{"name": "host/" + process},
	}}
	order := make([]int, len(t.spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return t.spans[order[a]].Start < t.spans[order[b]].Start })
	for _, i := range order {
		s := t.spans[i]
		events = append(events, chromeEvent{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X", PID: 1, TID: 1,
			TS:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{"run": t.runID, "span": i, "parent": s.Parent},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

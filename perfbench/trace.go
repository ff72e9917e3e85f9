package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// A span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Spans of one op (a Figure-6 session, a
// search, a write or an HTTP request) share Op; Parent is the id of the
// enclosing span, or -1 for an op's top-level calls.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps every span of a traced run in memory and reduces them to
// per-layer totals when the run ends. A nil *tracer records nothing, so
// untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// child records a span the program timed itself inside an open span, such
// as the index fetch phase a traced top-k search reports. It is placed at
// the start of its parent; only its duration matters for self time.
func (t *tracer) child(op, parent int, name string, d time.Duration) {
	if t == nil || parent < 0 {
		return
	}
	start := t.spans[parent].Start
	t.spans = append(t.spans, span{Op: op, ID: len(t.spans), Parent: parent, Name: name, Start: start, End: start + int64(d)})
}

// layerTotals is the reduction of a run's spans by name: call count, total
// duration and self time (duration minus the part child spans cover).
type layerTotals struct {
	calls map[string]int
	total map[string]time.Duration
	self  map[string]time.Duration
}

func (t *tracer) totals() layerTotals {
	lt := layerTotals{calls: map[string]int{}, total: map[string]time.Duration{}, self: map[string]time.Duration{}}
	if t == nil {
		return lt
	}
	childTime := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childTime[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		d := time.Duration(s.End - s.Start)
		lt.calls[s.Name]++
		lt.total[s.Name] += d
		lt.self[s.Name] += d - time.Duration(childTime[i])
	}
	return lt
}

// meanMs is the mean duration per call of the named span, in ms.
func (lt layerTotals) meanMs(name string) float64 {
	if lt.calls[name] == 0 {
		return 0
	}
	return float64(lt.total[name].Nanoseconds()) / 1e6 / float64(lt.calls[name])
}

// selfShare is the share of the root span's total time spent as self time
// in the named layers.
func (lt layerTotals) selfShare(root string, layers ...string) float64 {
	var sum time.Duration
	for _, l := range layers {
		sum += lt.self[l]
	}
	return ratio(float64(sum), float64(lt.total[root]))
}

// write saves the spans as JSON lines under dir, one file per run.
func (t *tracer) write(dir, file string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
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

// sortedNames lists the span names of a reduction, for printing.
func (lt layerTotals) sortedNames() []string {
	names := make([]string, 0, len(lt.calls))
	for n := range lt.calls {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the layer boundary. Spans of one cycle (or one read-only
// transaction) share an id; parent indexes the enclosing span (-1 for
// roots).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	ID     int64  `json:"id"`
}

// tracer keeps spans in memory; a nil tracer records nothing and costs
// one nil check per call site, so the untraced run does no tracing work.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// add records a finished span and returns its index (-1 when untraced).
func (t *tracer) add(name string, start, end time.Time, parent int32, id int64) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: t.ns(start), End: t.ns(end), Parent: parent, ID: id})
	return int32(len(t.spans) - 1)
}

// open records a span whose end is set later with close; children can
// name it as parent meanwhile.
func (t *tracer) open(name string, start time.Time, parent int32, id int64) int32 {
	return t.add(name, start, start, parent, id)
}

func (t *tracer) close(i int32, end time.Time) {
	if t != nil && i >= 0 {
		t.spans[i].End = t.ns(end)
	}
}

// durations returns the durations of every span with this name, in
// the given unit.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/float64(unit))
		}
	}
	return out
}

// total sums the durations of every span with this name.
func (t *tracer) total(name string) time.Duration {
	var d int64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// selfTimes returns, per layer (the span name up to its first dot),
// the summed self time: each span's duration minus the part of it its
// children cover. Read-only transaction spans ("txn.read_only") are
// response times of many overlapping transactions, not busy time, and
// are left out.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		if layer == "txn" {
			continue
		}
		out[layer] += time.Duration(s.End - s.Start - t.covered(children[i]))
	}
	return out
}

// covered is the length of the union of the children's intervals.
func (t *tracer) covered(kids []int) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, len(kids))
	for k, c := range kids {
		iv[k] = [2]int64{t.spans[c].Start, t.spans[c].End}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum int64
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			sum += cur[1] - cur[0]
			cur = x
		} else if x[1] > cur[1] {
			cur[1] = x[1]
		}
	}
	return sum + cur[1] - cur[0]
}

// write stores the spans plus the report as one JSON document.
func (t *tracer) write(path string, report any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Report any    `json:"report"`
		Spans  []span `json:"spans"`
	}{report, t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

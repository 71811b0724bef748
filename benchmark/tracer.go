package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call from the harness into a layer. Start and End
// are nanoseconds since the tracer was created; Parent indexes the
// enclosing span (-1 at top level); Run groups the spans of one
// episode, round or repetition. Counts are taken at the same boundary
// as the times, so a ratio such as ns per frame divides two numbers
// measured over exactly the same work.
type span struct {
	Name   string             `json:"name"`
	Layer  string             `json:"layer"`
	Start  int64              `json:"start"`
	End    int64              `json:"end"`
	Parent int                `json:"parent"`
	Run    int                `json:"run"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// tracer records spans around the harness's calls into the layers. All
// load is generated from one goroutine, so the open-span stack needs no
// lock. With on == false every call still times its function (the
// end-to-end metrics use the returned durations) but records nothing.
type tracer struct {
	on    bool
	t0    time.Time
	run   int
	spans []span
	stack []int
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// counts is the work a span covered, by name.
type counts map[string]float64

// time runs f inside a span called name (layer = the part of the name
// before the first dot) and returns how long f took. f may return the
// counts observed at the boundary.
func (t *tracer) time(name string, f func() counts) time.Duration {
	idx := -1
	if t.on {
		parent := -1
		if len(t.stack) > 0 {
			parent = t.stack[len(t.stack)-1]
		}
		layer, _, _ := strings.Cut(name, ".")
		idx = len(t.spans)
		t.spans = append(t.spans, span{Name: name, Layer: layer, Parent: parent, Run: t.run})
		t.stack = append(t.stack, idx)
	}
	start := time.Now()
	c := f()
	end := time.Now()
	if idx >= 0 {
		t.stack = t.stack[:len(t.stack)-1]
		sp := &t.spans[idx]
		sp.Start, sp.End, sp.Counts = start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds(), c
	}
	return end.Sub(start)
}

// call is time for a function with nothing to count.
func (t *tracer) call(name string, f func()) time.Duration {
	return t.time(name, func() counts { f(); return nil })
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its direct children cover. Overlapping children
// (which one goroutine cannot produce, but a merged trace can) are
// covered once, and a child reaching outside its parent only counts
// for the part inside.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int)
	for i, sp := range spans {
		if sp.Parent >= 0 {
			kids[sp.Parent] = append(kids[sp.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, sp := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, edge := int64(0), sp.Start
		for _, k := range ks {
			s, e := max(spans[k].Start, edge), min(spans[k].End, sp.End)
			if e > s {
				covered += e - s
				edge = e
			}
		}
		self[i] = sp.End - sp.Start - covered
	}
	return self
}

// spanTotal is the aggregate of every span sharing one name.
type spanTotal struct {
	Calls  int                `json:"calls"`
	Total  float64            `json:"total_ns"`
	Self   float64            `json:"self_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// totals aggregates the recorded spans by name.
func (t *tracer) totals() map[string]*spanTotal {
	self := selfTimes(t.spans)
	out := make(map[string]*spanTotal)
	for i, sp := range t.spans {
		a := out[sp.Name]
		if a == nil {
			a = &spanTotal{Counts: make(map[string]float64)}
			out[sp.Name] = a
		}
		a.Calls++
		a.Total += float64(sp.End - sp.Start)
		a.Self += float64(self[i])
		for k, v := range sp.Counts {
			a.Counts[k] += v
		}
	}
	return out
}

// selfPer returns the summed self time of the spans called name, in
// nanoseconds per unit of the named count (0 when nothing was counted).
func selfPer(tot map[string]*spanTotal, name, count string) float64 {
	a := tot[name]
	if a == nil || a.Counts[count] == 0 {
		return 0
	}
	return a.Self / a.Counts[count]
}

// write stores the spans and their per-name aggregate as JSON.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(struct {
		Spans  []span                `json:"spans"`
		Totals map[string]*spanTotal `json:"totals"`
	}{t.spans, t.totals()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

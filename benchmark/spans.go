package main

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Name is "<layer>.<operation>"; the layer is the program
// module the call lands in.
type span struct {
	ID     int
	Parent int // -1 for a root
	Name   string
	// Check is the index of the workload check the span belongs to: the
	// identifier all spans of one request share.
	Check int
	// Lane separates spans that run concurrently (the two k-induction
	// queries), so a trace viewer never nests one inside the other.
	Lane  string
	Start time.Time
	End   time.Time
}

const noParent = -1

// recorder keeps spans in memory until the run ends. It is safe for
// concurrent use: the k-induction pools call the executor decorator from
// two goroutines.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its ID.
func (r *recorder) begin(parent int, name string, check int, lane string) int {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Check: check, Lane: lane, Start: now})
	return id
}

// end closes the span.
func (r *recorder) end(id int) {
	now := time.Now()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// add records a span measured elsewhere (a racer attempt, whose times the
// race reports after it has joined).
func (r *recorder) add(parent int, name string, check int, lane string, start time.Time, dur time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Name: name, Check: check, Lane: lane, Start: start, End: start.Add(dur)})
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its children cover. Children are clipped to the parent
// and overlapping children count once, so concurrent children never make
// a self time negative.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for _, s := range spans {
		if s.Parent != noParent {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]time.Duration, len(spans))
	for _, s := range spans {
		type iv struct{ a, b time.Time }
		var ivs []iv
		for _, c := range children[s.ID] {
			a, b := spans[c].Start, spans[c].End
			if a.Before(s.Start) {
				a = s.Start
			}
			if b.After(s.End) {
				b = s.End
			}
			if b.After(a) {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
		var covered time.Duration
		var edge time.Time
		for _, v := range ivs {
			if v.a.After(edge) {
				edge = v.a
			}
			if v.b.After(edge) {
				covered += v.b.Sub(edge)
				edge = v.b
			}
		}
		self[s.ID] = s.End.Sub(s.Start) - covered
	}
	return self
}

// layerOf returns the layer part of a span name.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfByName sums self time over the spans of each name.
func selfByName(spans []span) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for i, d := range selfTimes(spans) {
		out[spans[i].Name] += d
	}
	return out
}

// writeChromeTrace writes the spans in the Chrome trace event format
// (chrome://tracing, Perfetto): one complete event per span, one thread
// per lane, with the span's ID, parent and check in its arguments.
func writeChromeTrace(w io.Writer, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := []event{}
	if len(spans) > 0 {
		origin := spans[0].Start
		for _, s := range spans {
			if s.Start.Before(origin) {
				origin = s.Start
			}
		}
		lanes := map[string]int{}
		for _, s := range spans {
			tid, ok := lanes[s.Lane]
			if !ok {
				tid = len(lanes)
				lanes[s.Lane] = tid
				events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid, Args: map[string]any{"name": s.Lane}})
			}
			events = append(events, event{
				Name: s.Name, Cat: layerOf(s.Name), Ph: "X", Pid: 1, Tid: tid,
				Ts:   float64(s.Start.Sub(origin)) / float64(time.Microsecond),
				Dur:  float64(s.End.Sub(s.Start)) / float64(time.Microsecond),
				Args: map[string]any{"id": s.ID, "parent": s.Parent, "check": s.Check},
			})
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

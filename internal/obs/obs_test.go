package obs

import (
	"bytes"
	"encoding/json"
	"maps"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilSafety: every handle and the registry itself must be usable as
// nil — that is the "observability off" configuration every hot path
// relies on.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z")
	c.Add(3)
	c.Inc()
	g.Set(7)
	h.Observe(42)
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil handles must read zero")
	}
	if s := r.Snapshot(); len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}

	var tr *Tracer
	sp := tr.Begin("lane", "span")
	sp.SetArg("k", 1)
	sp.End()
	tr.Complete("lane", "x", time.Now(), time.Second, nil)
	if tr.Len() != 0 {
		t.Fatal("nil tracer must record nothing")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("nil tracer output is not JSON: %v", err)
	}
}

// TestRegistryHandles: the same name returns the same handle, and values
// survive into snapshots and both text renderings.
func TestRegistryHandles(t *testing.T) {
	r := NewRegistry()
	c := r.Counter(Name("solver_conflicts_total", "strategy", "vsids"))
	if r.Counter(`solver_conflicts_total{strategy="vsids"}`) != c {
		t.Fatal("same name must return the same counter")
	}
	c.Add(5)
	r.Gauge("frame_vars").Set(31)
	h := r.Histogram("race_wall_nanos")
	h.Observe(1)
	h.Observe(3)
	h.Observe(1 << 20)

	s := r.Snapshot()
	if got := s.Counters[`solver_conflicts_total{strategy="vsids"}`]; got != 5 {
		t.Fatalf("counter snapshot = %d, want 5", got)
	}
	if got := s.Gauges["frame_vars"]; got != 31 {
		t.Fatalf("gauge snapshot = %d, want 31", got)
	}
	hs := s.Histograms["race_wall_nanos"]
	if hs.Count != 3 || hs.Sum != 4+1<<20 {
		t.Fatalf("histogram snapshot = %+v", hs)
	}

	c.Add(2)
	h.Observe(8)

	var text bytes.Buffer
	r.WriteText(&text)
	if !strings.Contains(text.String(), `solver_conflicts_total{strategy="vsids"} 7`) {
		t.Errorf("text dump missing counter:\n%s", text.String())
	}

	var prom bytes.Buffer
	r.WritePrometheus(&prom)
	for _, want := range []string{
		"# TYPE solver_conflicts_total counter",
		`solver_conflicts_total{strategy="vsids"} 7`,
		"# TYPE frame_vars gauge",
		"# TYPE race_wall_nanos histogram",
		`race_wall_nanos_bucket{le="+Inf"} 4`,
		"race_wall_nanos_count 4",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("prometheus output missing %q:\n%s", want, prom.String())
		}
	}
}

// TestHistogramBuckets: values land in their log2 bucket, read through
// Snapshot. Bucket i holds 2^(i-1) <= v < 2^i, so 2^k is the first value
// of bucket k+1: 8 and 9 share a bucket that 7 does not.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("bounds")
	for _, v := range []int64{0, 1, 2, 3, 4, 7, 8, 9, 1000} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["bounds"]
	want := map[int]int64{0: 1, 1: 1, 2: 2, 3: 2, 4: 2, 10: 1}
	if !maps.Equal(s.Buckets, want) {
		t.Errorf("buckets = %v, want %v", s.Buckets, want)
	}
	if s.Count != 9 || s.Sum != 1034 {
		t.Errorf("count=%d sum=%d, want 9/1034", s.Count, s.Sum)
	}
	if BucketBound(3) != 8 || BucketBound(4) != 16 {
		t.Errorf("BucketBound(3), BucketBound(4) = %d, %d, want 8, 16", BucketBound(3), BucketBound(4))
	}
}

// TestConcurrentInstruments: handle creation and increments from many
// goroutines must be race-free and lose no updates (run under -race).
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer()
	const workers, n = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared_total")
			h := r.Histogram("shared_hist")
			for i := 0; i < n; i++ {
				c.Inc()
				h.Observe(int64(i))
				if i%100 == 0 {
					sp := tr.Begin("lane", "work")
					sp.End()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared_total").Value(); got != workers*n {
		t.Fatalf("lost updates: %d, want %d", got, workers*n)
	}
	if got := r.Snapshot().Histograms["shared_hist"].Count; got != workers*n {
		t.Fatalf("lost observations: %d, want %d", got, workers*n)
	}
	if tr.Len() != workers*(n/100) {
		t.Fatalf("lost spans: %d", tr.Len())
	}
}

// TestTraceJSON: the emitted file is valid Chrome trace format — a
// traceEvents array of complete events with name/ph/ts/dur/pid/tid —
// with lanes labeled by thread_name metadata.
func TestTraceJSON(t *testing.T) {
	tr := NewTracer()
	root := tr.Begin("engine", "check")
	dep := tr.Begin("engine", "depth 0")
	dep.SetArg("k", 0)
	tr.Complete("racer:vsids", "attempt", time.Now(), 3*time.Millisecond, map[string]any{"conflicts": 7})
	dep.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, buf.String())
	}
	var names []string
	for _, e := range parsed.TraceEvents {
		if e["ph"] == "X" {
			names = append(names, e["name"].(string))
			if _, ok := e["ts"].(float64); !ok {
				t.Errorf("event %v missing ts", e)
			}
		}
	}
	for _, want := range []string{"check", "depth 0", "attempt"} {
		found := false
		for _, n := range names {
			found = found || n == want
		}
		if !found {
			t.Errorf("span %q missing from trace (have %v)", want, names)
		}
	}
}

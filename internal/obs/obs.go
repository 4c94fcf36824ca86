// Package obs is the repository's zero-dependency observability layer:
// a lock-cheap metrics registry (counters, gauges, log-bucketed
// histograms) and a span tracer emitting Chrome-trace-format JSON. Every
// other layer — sat, unroll, racer, portfolio, engine, cmd/bmc — hangs
// its instrumentation off these two types; obs itself imports nothing but
// the standard library, so any package may depend on it without cycles.
//
// Design rules, in order of importance:
//
//  1. Off must be free. Every handle type (*Counter, *Gauge, *Histogram,
//     *Tracer, *Span) is nil-safe: a nil receiver is a no-op, so the
//     un-instrumented hot path pays exactly one nil-check branch and the
//     instrumented-vs-off ablation (tablegen -experiment=obs-overhead)
//     stays under its 2% budget.
//  2. The hot path is atomic, not locked. Counter.Add, Gauge.Set, and
//     Histogram.Observe are single atomic operations; the registry's
//     mutex is taken only when a handle is first created or a snapshot
//     is taken. Nothing in the package samples the runtime or stops the
//     world: every value is one a caller read from its own structures,
//     so both rules hold with no exception.
//  3. Handles are stable. Registry.Counter(name) returns the same
//     *Counter for the same name forever, so callers fetch handles once
//     at setup and increment them raw afterwards.
//
// Metric names follow the Prometheus convention with inline labels:
//
//	solver_conflicts_total{query="bmc",strategy="vsids"}
//
// Registry.WritePrometheus emits them verbatim in exposition format;
// WriteText and Snapshot (the -json form) keep the full string as the
// key.
package obs

import "sync/atomic"

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a nil *Counter is a no-op (the "registry off"
// default).
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The zero value is ready to
// use; a nil *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of log2 buckets: bucket i counts observations
// v with 2^(i-1) <= v < 2^i (bucket 0 counts v <= 0 and v == 1 lands in
// bucket 1), which spans the full int64 range.
const histBuckets = 64

// Histogram is a log2-bucketed histogram of int64 observations. Observe
// is a single atomic add into the value's bucket plus two for count/sum;
// there is no locking and no allocation. The zero value is ready to use;
// a nil *Histogram is a no-op.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// bucketOf returns the log2 bucket index of v.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := 1
	for v > 1 {
		v >>= 1
		b++
	}
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// BucketBound returns the exclusive upper bound of bucket i (values v
// land in the bucket with the smallest bound > v-1, i.e. bucket i holds
// 2^(i-1) <= v < 2^i).
func BucketBound(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return int64(1) << 62 // representative; the top bucket is open-ended
	}
	return int64(1) << i
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// HistogramSnapshot is the exported state of one histogram: only
// non-empty buckets appear, keyed by bucket index.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum"`
	Buckets map[int]int64 `json:"buckets,omitempty"`
}

// snapshot captures the histogram's current state.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n != 0 {
			if s.Buckets == nil {
				s.Buckets = map[int]int64{}
			}
			s.Buckets[i] = n
		}
	}
	return s
}

package obs

import "runtime"

// Memory gauge names. Like the solver_* family they are in the metric
// catalogue internal/remote's TestMetricCatalogue checks.
const (
	metricMemHeapAlloc  = "mem_heap_alloc"
	metricMemTotalAlloc = "mem_total_alloc"
	metricMemGCCount    = "mem_gc_count"
)

// MemSample is one runtime.ReadMemStats reading, reduced to the three
// figures the benchmark observatory tracks.
type MemSample struct {
	// HeapAlloc is the live heap in bytes at the sample instant.
	HeapAlloc int64
	// TotalAlloc is the cumulative bytes allocated since process start.
	TotalAlloc int64
	// GCCount is the number of completed GC cycles since process start.
	GCCount int64
}

// MemSampler publishes process memory readings as gauges
// (mem_heap_alloc, mem_total_alloc, mem_gc_count). Each Sample calls
// runtime.ReadMemStats, which briefly stops the world — callers must
// sample at coarse boundaries (depth transitions, run ends), never
// inside a solver loop. A nil sampler is a no-op, matching the rest of
// the package: an un-instrumented run pays one branch and no syscall.
type MemSampler struct {
	heap  *Gauge
	total *Gauge
	gc    *Gauge
}

// NewMemSampler returns a sampler publishing into reg, or nil for a nil
// registry.
func NewMemSampler(reg *Registry) *MemSampler {
	if reg == nil {
		return nil
	}
	return &MemSampler{
		heap:  reg.Gauge(metricMemHeapAlloc),
		total: reg.Gauge(metricMemTotalAlloc),
		gc:    reg.Gauge(metricMemGCCount),
	}
}

// Sample reads the runtime memory statistics, updates the gauges, and
// returns the reading. A nil sampler returns the zero sample without
// touching the runtime.
func (m *MemSampler) Sample() MemSample {
	if m == nil {
		return MemSample{}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := MemSample{
		HeapAlloc:  int64(ms.HeapAlloc),
		TotalAlloc: int64(ms.TotalAlloc),
		GCCount:    int64(ms.NumGC),
	}
	m.heap.Set(s.HeapAlloc)
	m.total.Set(s.TotalAlloc)
	m.gc.Set(s.GCCount)
	return s
}

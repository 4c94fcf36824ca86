package main

// metricDef describes one reported metric. BENCHMARK.json lists the same
// names, units, directions and bounds; TestBenchmarkJSONInSync keeps the
// two from drifting apart.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change is rejected (per-layer metrics have none).
	Bound float64
}

// End-to-end metric names.
const (
	mVerdictS     = "verdict_s"
	mSetupS       = "setup_s"
	mAllocMB      = "alloc_mb"
	mPeakHeapMB   = "peak_heap_mb"
	mDecidedShare = "decided_share"
)

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of Session.Check sees. The two timings
// carry the widest bound allowed: on the shared 2-core box the benchmark
// was built on, ten runs of the same code spread by 4-10% and once by 22%,
// and two sets of ten drifted apart by up to 23% (README.md, "Measured
// repeatability"). The memory metrics repeat within 2% and are gated
// tightly.
var endToEnd = []metricDef{
	{mVerdictS, "s", lower, 0.25},
	{mSetupS, "s", lower, 0.25},
	{mAllocMB, "MB", lower, 0.02},
	{mPeakHeapMB, "MB", lower, 0.10},
	{mDecidedShare, "ratio", higher, 0.001},
}

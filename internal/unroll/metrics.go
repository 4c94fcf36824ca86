package unroll

import (
	"time"

	"repro/internal/cnf"
	"repro/internal/obs"
)

// Metrics is the unroller's bundle of obs handles, observed once per
// Frame build (encode cost is per depth, not per clause, so nothing here
// is hot). The handles are atomic: Frame may be called from several
// goroutines at once. A nil *Metrics — the default on a Delta — skips even
// the clock read.
type Metrics struct {
	Frames     *obs.Counter // Frame(k) calls
	BuildNanos *obs.Counter // wall time inside Frame builds
	Clauses    *obs.Counter // clauses emitted across all frames
	Literals   *obs.Counter // literals across those clauses
	Vars       *obs.Gauge   // current variable count (grows with depth)

	// FrameClauses distributes per-frame clause counts — the growth
	// shape per depth (step frames grow quadratically with the simple
	// path, delta frames stay flat).
	FrameClauses *obs.Histogram
}

// Unroller metric base names (family_metric convention, enforced with the
// catalogue by internal/remote's TestMetricCatalogue).
const (
	metricUnrollFrames       = "unroll_frames_total"
	metricUnrollBuildNanos   = "unroll_build_nanos_total"
	metricUnrollClauses      = "unroll_clauses_total"
	metricUnrollLiterals     = "unroll_literals_total"
	metricUnrollVars         = "unroll_vars"
	metricUnrollFrameClauses = "unroll_frame_clauses"
)

// NewMetrics registers the unroll metric family under reg with the given
// label pairs (e.g. "query", "bmc") baked into every series. A nil
// registry yields no-op handles.
func NewMetrics(reg *obs.Registry, labels ...string) *Metrics {
	n := func(base string) string { return obs.Name(base, labels...) }
	return &Metrics{
		Frames:       reg.Counter(n(metricUnrollFrames)),
		BuildNanos:   reg.Counter(n(metricUnrollBuildNanos)),
		Clauses:      reg.Counter(n(metricUnrollClauses)),
		Literals:     reg.Counter(n(metricUnrollLiterals)),
		Vars:         reg.Gauge(n(metricUnrollVars)),
		FrameClauses: reg.Histogram(n(metricUnrollFrameClauses)),
	}
}

// observe records one built frame.
func (m *Metrics) observe(start time.Time, f *cnf.Formula) {
	if m == nil {
		return
	}
	m.Frames.Inc()
	m.BuildNanos.Add(int64(time.Since(start)))
	m.Clauses.Add(int64(f.NumClauses()))
	m.Literals.Add(int64(f.NumLiterals()))
	// A late-starting racer re-encodes frames below the current depth
	// (racer.Feed.CatchUp): the gauge follows the deepest frame built.
	if n := int64(f.NumVars); n > m.Vars.Value() {
		m.Vars.Set(n)
	}
	m.FrameClauses.Observe(int64(f.NumClauses()))
}

// SetMetrics attaches frame-build instrumentation to the delta view
// (nil detaches it).
func (d *Delta) SetMetrics(m *Metrics) { d.metrics = m }

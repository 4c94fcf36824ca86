package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
)

// Per-layer metric names: "<layer>.<metric>", the layer being the module.
const (
	mAigerParseS       = "aiger.parse_s"
	mAigerAndsPerS     = "aiger.ands_per_s"
	mUnrollEncodeS     = "unroll.encode_s"
	mUnrollClauses     = "unroll.clauses"
	mUnrollClausesPerS = "unroll.clauses_per_s"
	mUnrollTraceS      = "unroll.trace_s"
	mSatLoadS          = "sat.load_s"
	mSatLoadPerS       = "sat.load_clauses_per_s"
	mSatSolveS         = "sat.solve_s"
	mSatConflicts      = "sat.conflicts"
	mSatPropagations   = "sat.propagations"
	mSatDecisions      = "sat.decisions"
	mSatConflictsPerS  = "sat.conflicts_per_s"
	mSatPropsPerS      = "sat.props_per_s"
	mSatAllocMB        = "sat.alloc_mb"
	mCoreConfigureS    = "core.configure_s"
	mCoreExtractS      = "core.extract_s"
	mCoreBoardS        = "core.board_s"
	mCoreShare         = "core.core_share"
	mCoreRecorderMB    = "core.recorder_mb"
	mCoreRefineRatio   = "core.refine_conflict_ratio"
	mRacerRaceS        = "racer.race_s"
	mRacerRaces        = "racer.races"
	mRacerFeedS        = "racer.feed_s"
	mRacerBusExported  = "racer.bus_exported"
	mRacerBusImported  = "racer.bus_imported"
	mRacerBusDropped   = "racer.bus_dedup_dropped"
	mRemoteRttS        = "remote.race_rtt_s"
	mRemoteFrameSinkS  = "remote.frame_sink_s"
	mRemoteClauseFwdS  = "remote.clause_fwd_s"
	mRemoteBytesSent   = "remote.bytes_sent"
	mRemoteBytesRecv   = "remote.bytes_recv"
	mRemoteFramesSent  = "remote.frames_sent"
	mRemoteBytesPerV   = "remote.bytes_per_verdict"
	mRemoteFallbacks   = "remote.fallbacks"
	mRemoteReconnects  = "remote.reconnects"
	mRemoteOverhead    = "remote.overhead_ratio"
	mEngineCheckS      = "engine.check_s"
	mEngineUnattrib    = "engine.unattributed_share"
	mEngineTraceCost   = "engine.trace_overhead_share"
	mMachineCalibS     = "machine.calib_s"
	mMachinePassSpread = "machine.pass_iqr_share"
)

// perLayer are the single-layer metrics of the traced run. None is
// gated; README.md says which end-to-end metric each should move, and on
// which workload.
var perLayer = []metricDef{
	{mAigerParseS, "s", lower, 0},
	{mAigerAndsPerS, "1/s", higher, 0},
	{mUnrollEncodeS, "s", lower, 0},
	{mUnrollClauses, "count", lower, 0},
	{mUnrollClausesPerS, "1/s", higher, 0},
	{mUnrollTraceS, "s", lower, 0},
	{mSatLoadS, "s", lower, 0},
	{mSatLoadPerS, "1/s", higher, 0},
	{mSatSolveS, "s", lower, 0},
	{mSatConflicts, "count", lower, 0},
	{mSatPropagations, "count", lower, 0},
	{mSatDecisions, "count", lower, 0},
	{mSatConflictsPerS, "1/s", higher, 0},
	{mSatPropsPerS, "1/s", higher, 0},
	{mSatAllocMB, "MB", lower, 0},
	{mCoreConfigureS, "s", lower, 0},
	{mCoreExtractS, "s", lower, 0},
	{mCoreBoardS, "s", lower, 0},
	{mCoreShare, "ratio", lower, 0},
	{mCoreRecorderMB, "MB", lower, 0},
	{mCoreRefineRatio, "ratio", higher, 0},
	{mRacerRaceS, "s", lower, 0},
	{mRacerRaces, "count", lower, 0},
	{mRacerFeedS, "s", lower, 0},
	{mRacerBusExported, "count", higher, 0},
	{mRacerBusImported, "count", higher, 0},
	{mRacerBusDropped, "count", lower, 0},
	{mRemoteRttS, "s", lower, 0},
	{mRemoteFrameSinkS, "s", lower, 0},
	{mRemoteClauseFwdS, "s", lower, 0},
	{mRemoteBytesSent, "B", lower, 0},
	{mRemoteBytesRecv, "B", lower, 0},
	{mRemoteFramesSent, "count", lower, 0},
	{mRemoteBytesPerV, "B", lower, 0},
	{mRemoteFallbacks, "count", lower, 0},
	{mRemoteReconnects, "count", lower, 0},
	{mRemoteOverhead, "ratio", lower, 0},
	{mEngineCheckS, "s", lower, 0},
	{mEngineUnattrib, "ratio", lower, 0},
	{mEngineTraceCost, "ratio", lower, 0},
	{mMachineCalibS, "s", lower, 0},
	{mMachinePassSpread, "ratio", lower, 0},
}

// Counter families of the program's own registry that the traced run
// reads once, after a pool-based check.
const (
	regUnrollBuildNanos = "unroll_build_nanos_total"
	regUnrollClauses    = "unroll_clauses_total"
	regNetBytesSent     = "net_bytes_sent_total"
	regNetBytesRecv     = "net_bytes_recv_total"
	regNetFramesSent    = "net_frames_sent_total"
	regRemoteFallbacks  = "remote_fallback_races_total"
	regRemoteReconnects = "remote_reconnects_total"
)

// family sums a counter family over its label sets.
func family(s obs.Snapshot, base string) int64 {
	var n int64
	for name, v := range s.Counters {
		if name == base || strings.HasPrefix(name, base+"{") {
			n += v
		}
	}
	return n
}

// timedShareOfTracedRun is the part of a traced run's time box spent on
// untraced passes: they give the outcomes the layer driver must
// reproduce and the median the tracing overhead is measured against.
const timedShareOfTracedRun = 0.4

// tracer holds one traced pass: the span store, and the per-check
// observers of the pool-based checks (nil for checks the layer driver
// runs).
type tracer struct {
	rec    *recorder
	checks []*checkTrace
}

func newTracer(w workload) *tracer {
	t := &tracer{rec: &recorder{}, checks: make([]*checkTrace, len(w.checks))}
	for i, ck := range w.checks {
		if ck.shape.poolBased() {
			t.checks[i] = newCheckTrace(t.rec, i)
		}
	}
	return t
}

// tracedPass is everything one traced pass measured.
type tracedPass struct {
	spans    []span
	outcomes []outcome
	counts   layerCounts
	wire     obs.Snapshot // registries of the pool-based checks, merged
	decided  int
}

// runTracedPass runs every check of w once under tracing: single-solver
// checks through the layer driver, pool-based checks through
// Session.Check with the observers attached.
func runTracedPass(ctx context.Context, w workload) (tracedPass, error) {
	tr := newTracer(w)
	prep, err := setUp(w, tr)
	if err != nil {
		return tracedPass{}, err
	}
	defer prep.release()
	tp := tracedPass{outcomes: make([]outcome, len(w.checks)), wire: obs.Snapshot{Counters: map[string]int64{}}}
	for i, ck := range w.checks {
		ct := tr.checks[i]
		if ct == nil {
			d := &driver{rec: tr.rec, check: i}
			o, err := d.drive(ctx, ck, prep.circuits[i])
			if err != nil {
				return tp, err
			}
			tp.outcomes[i] = o
			tp.counts.add(d.counts)
			continue
		}
		ct.root = tr.rec.begin(noParent, spCheck, i, laneMain)
		res, err := prep.sessions[i].Check(ctx)
		tr.rec.end(ct.root)
		if err != nil {
			return tp, fmt.Errorf("%s: %w", ck.name, err)
		}
		tp.outcomes[i] = outcomeOf(ck.shape, res)
		tp.counts.add(ct.counts)
		for name, v := range ct.reg.Snapshot().Counters {
			tp.wire.Counters[name] += v
		}
	}
	if err := ctx.Err(); err != nil {
		return tp, err
	}
	for i, ck := range w.checks {
		if judge(ck, tp.outcomes[i]) == "" {
			tp.decided++
		}
	}
	tp.spans = tr.rec.snapshot()
	return tp, nil
}

// checkWall is the summed duration of the pass's check spans.
func (tp tracedPass) checkWall() time.Duration {
	var d time.Duration
	for _, s := range tp.spans {
		if s.Name == spCheck {
			d += s.End.Sub(s.Start)
		}
	}
	return d
}

func perSecond(n int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// layerValues turns one traced pass into per-layer numbers: sums of self
// time per span name, the counts taken beside the spans, and the ratios
// between them.
func layerValues(tp tracedPass) map[string]float64 {
	self := selfByName(tp.spans)
	poolEncode := time.Duration(family(tp.wire, regUnrollBuildNanos))
	encode := self[spUnrollFormula] + self[spUnrollFrame] + poolEncode
	clauses := tp.counts.encoded + family(tp.wire, regUnrollClauses)
	var o outcome
	for _, x := range tp.outcomes {
		o.Conflicts += x.Conflicts
		o.Propagations += x.Propagations
		o.Decisions += x.Decisions
	}
	wall := tp.checkWall()
	var unattributed time.Duration
	for name, d := range self {
		if layerOf(name) == layerOf(spCheck) {
			unattributed += d
		}
	}
	sent, recv := family(tp.wire, regNetBytesSent), family(tp.wire, regNetBytesRecv)
	v := map[string]float64{
		mUnrollEncodeS:     encode.Seconds(),
		mUnrollClauses:     float64(clauses),
		mUnrollClausesPerS: perSecond(clauses, encode),
		mUnrollTraceS:      self[spUnrollTrace].Seconds(),
		mSatLoadS:          self[spSatLoad].Seconds(),
		mSatLoadPerS:       perSecond(tp.counts.loaded, self[spSatLoad]),
		mSatSolveS:         self[spSatSolve].Seconds(),
		mSatConflicts:      float64(o.Conflicts),
		mSatPropagations:   float64(o.Propagations),
		mSatDecisions:      float64(o.Decisions),
		mSatConflictsPerS:  perSecond(o.Conflicts, self[spSatSolve]),
		mSatPropsPerS:      perSecond(o.Propagations, self[spSatSolve]),
		mSatAllocMB:        float64(tp.counts.satAllocBytes) / mb,
		mCoreConfigureS:    self[spCoreConfigure].Seconds(),
		mCoreExtractS:      self[spCoreExtract].Seconds(),
		mCoreBoardS:        self[spCoreBoard].Seconds(),
		mCoreRecorderMB:    float64(tp.counts.recorderBytes) / mb,
		mRacerRaceS:        self[spLocalRace].Seconds(),
		mRacerRaces:        float64(tp.counts.races),
		// What a pool does at a depth besides racing: feed the frame to
		// every solver, apply guidance, fold the core, run the bus. The
		// frame build inside it is the unroller's and is taken out.
		mRacerFeedS:       max(0, (self[spPoolDepth] - poolEncode).Seconds()),
		mRacerBusExported: float64(tp.counts.busExported),
		mRacerBusImported: float64(tp.counts.busImported),
		mRacerBusDropped:  float64(tp.counts.busDropped),
		mRemoteRttS:       self[spRemoteRace].Seconds(),
		mRemoteFrameSinkS: self[spRemoteFrame].Seconds(),
		mRemoteClauseFwdS: self[spRemoteClauses].Seconds(),
		mRemoteBytesSent:  float64(sent),
		mRemoteBytesRecv:  float64(recv),
		mRemoteFramesSent: float64(family(tp.wire, regNetFramesSent)),
		mRemoteFallbacks:  float64(family(tp.wire, regRemoteFallbacks)),
		mRemoteReconnects: float64(family(tp.wire, regRemoteReconnects)),
		mEngineCheckS:     wall.Seconds(),
	}
	if tp.counts.formulaClauses > 0 {
		v[mCoreShare] = float64(tp.counts.coreClauses) / float64(tp.counts.formulaClauses)
	}
	if tp.decided > 0 {
		v[mRemoteBytesPerV] = float64(sent+recv) / float64(tp.decided)
	}
	if wall > 0 {
		v[mEngineUnattrib] = unattributed.Seconds() / wall.Seconds()
	}
	return v
}

// tracedPhase produces the per-layer metrics of w: traced passes for the
// rest of the time box (at least two), each checked against the outcomes
// the untraced phase ph produced, their numbers reduced to medians.
func tracedPhase(ctx context.Context, w workload, o options, ph phase) (map[string]float64, []string, error) {
	box := o.seconds * (1 - timedShareOfTracedRun)
	start := time.Now()

	// The two comparison runs come first, so that the time box covers them.
	var vsidsConflicts int64
	var localWall time.Duration
	switch w.name {
	case wlSearchScratch:
		// The paper's effect as an exact count: conflicts of the plain
		// VSIDS ordering over conflicts of the refined one, same instance.
		n, err := conflictsUnder(ctx, w, core.OrderVSIDS)
		if err != nil {
			return nil, nil, err
		}
		vsidsConflicts = n
	case wlFleetWire:
		// The same warm portfolio on the in-process executor, traced the
		// same way: what the wire costs, as a ratio.
		local := w
		local.checks = nil
		for _, ck := range w.checks {
			ck.shape = shapeWarmLocal
			local.checks = append(local.checks, ck)
		}
		tp, err := runTracedPass(ctx, local)
		if err != nil {
			return nil, nil, err
		}
		localWall = tp.checkWall()
	}

	var passes []tracedPass
	var longest float64
	for n := 0; ; n++ {
		if o.smoke && n == 1 {
			break
		}
		if n >= 2 && time.Since(start).Seconds()+longest > box {
			break
		}
		t0 := time.Now()
		tp, err := runTracedPass(ctx, w)
		if err != nil {
			return nil, nil, err
		}
		longest = max(longest, time.Since(t0).Seconds())
		if err := sameOutcomes(w, "traced pass", ph.passes[0].outcomes, tp.outcomes); err != nil {
			return nil, nil, err
		}
		passes = append(passes, tp)
	}

	per := make([]map[string]float64, len(passes))
	for i, tp := range passes {
		per[i] = layerValues(tp)
	}
	values := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		xs := make([]float64, len(per))
		for i := range per {
			xs[i] = per[i][d.Name]
		}
		values[d.Name] = median(xs)
	}

	// A fallback or a reconnect means a race did not run where the
	// workload says it runs: the timing is of something else.
	var failures []string
	if n := values[mRemoteFallbacks] + values[mRemoteReconnects]; n > 0 {
		failures = append(failures, fmt.Sprintf("fleet: %g fallback races and reconnects, want none", n))
	}

	timed := median(ph.column(func(p pass) float64 { return p.verdictS }))
	values[mEngineTraceCost] = (values[mEngineCheckS] - timed) / timed
	values[mMachineCalibS] = median(ph.column(func(p pass) float64 { return p.calibS }))
	values[mMachinePassSpread] = iqrShare(ph.column(func(p pass) float64 { return p.verdictS }))
	parse := median(ph.column(func(p pass) float64 { return p.parseS }))
	values[mAigerParseS] = parse
	if parse > 0 {
		values[mAigerAndsPerS] = float64(ph.passes[0].ands) / parse
	}
	if vsidsConflicts > 0 {
		values[mCoreRefineRatio] = float64(vsidsConflicts) / values[mSatConflicts]
	}
	if localWall > 0 {
		values[mRemoteOverhead] = values[mEngineCheckS] / localWall.Seconds()
	}

	if o.outDir != "" {
		if err := writeTraceFile(filepath.Join(o.outDir, w.name+".trace.json"), passes[len(passes)-1].spans); err != nil {
			return nil, nil, err
		}
	}
	return values, failures, nil
}

// conflictsUnder runs w's checks once under another ordering and returns
// their conflicts.
func conflictsUnder(ctx context.Context, w workload, st core.Strategy) (int64, error) {
	var n int64
	for _, ck := range w.checks {
		sess, err := engine.New(ck.build(), 0, append(ck.shape.options(ck.depth), engine.WithOrdering(st))...)
		if err != nil {
			return 0, err
		}
		res, err := sess.Check(ctx)
		if err != nil {
			return 0, err
		}
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		n += outcomeOf(ck.shape, res).Conflicts
	}
	return n, nil
}

func writeTraceFile(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lits"
	"repro/internal/racer"
	"repro/internal/sat"
	"repro/internal/unroll"
)

// Span names: "<layer>.<operation>", the layer being the module the call
// lands in.
const (
	spCheck         = "engine.check"
	spDepth         = "engine.depth"
	spUnrollFormula = "unroll.formula"
	spUnrollFrame   = "unroll.frame"
	spUnrollTrace   = "unroll.trace"
	spCoreConfigure = "core.configure"
	spCoreExtract   = "core.extract"
	spCoreBoard     = "core.board"
	spSatLoad       = "sat.load"
	spSatSolve      = "sat.solve"
	spPoolDepth     = "racer.depth"
	spLocalRace     = "racer.race"
	spRemoteRace    = "remote.race"
	spRemoteFrame   = "remote.frame_sink"
	spRemoteClauses = "remote.clause_fwd"
)

// laneMain is the trace lane of everything that runs on the goroutine
// calling the check.
const laneMain = "check"

// layerCounts are the counts taken at the layer boundaries of one check,
// beside the spans.
type layerCounts struct {
	encoded        int64 // clauses the unroller built
	loaded         int64 // clauses handed to a solver
	coreClauses    int64 // unsat-core clauses, summed over depths
	formulaClauses int64 // clauses the cores were extracted from
	recorderBytes  int64 // largest conflict-dependency graph seen
	satAllocBytes  uint64
	races          int64 // races submitted through the Executor
	// Clause-bus traffic, summed over strategies.
	busExported, busImported, busDropped int64
}

func (a *layerCounts) add(b layerCounts) {
	a.encoded += b.encoded
	a.loaded += b.loaded
	a.coreClauses += b.coreClauses
	a.formulaClauses += b.formulaClauses
	a.recorderBytes = max(a.recorderBytes, b.recorderBytes)
	a.satAllocBytes += b.satAllocBytes
	a.races += b.races
	a.busExported += b.busExported
	a.busImported += b.busImported
	a.busDropped += b.busDropped
}

// driver re-runs a single-solver check by calling the layers' public
// functions in the order the engine's depth loops call them, with a span
// around each call. It exists because the benchmark may not edit the
// program: spans inside Session.Check are a later change. What it runs
// must stay the same search — tracedPhase fails the run unless verdict,
// depth, conflicts, propagations and clause count equal Session.Check's.
type driver struct {
	rec    *recorder
	check  int
	parent int
	counts layerCounts
}

// in runs fn inside a span under the driver's current parent.
func (d *driver) in(name string, fn func()) {
	id := d.rec.begin(d.parent, name, d.check, laneMain)
	fn()
	d.rec.end(id)
}

// inSat is in for solver calls, which also count what they allocate.
func (d *driver) inSat(name string, fn func()) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d.in(name, fn)
	runtime.ReadMemStats(&m1)
	d.counts.satAllocBytes += m1.TotalAlloc - m0.TotalAlloc
}

func solverOptions(ctx context.Context) sat.Options {
	so := sat.Defaults()
	so.Stop = ctx.Done()
	return so
}

func (o *outcome) addStats(st sat.Stats) {
	o.Conflicts += st.Conflicts
	o.Propagations += st.Implications
	o.Decisions += st.Decisions
}

// drive runs ck (scratch or incremental shape) through the layer driver.
func (d *driver) drive(ctx context.Context, ck check, c *circuit.Circuit) (outcome, error) {
	root := d.rec.begin(noParent, spCheck, d.check, laneMain)
	defer d.rec.end(root)
	d.parent = root
	u, err := unroll.New(c, 0)
	if err != nil {
		return outcome{}, err
	}
	var step func(k int, o *outcome) (sat.Status, error)
	if ck.shape == shapeIncremental {
		step = d.incremental(ctx, u)
	} else {
		step = d.scratch(ctx, u)
	}
	o := outcome{Verdict: engine.Holds, K: -1}
	for k := 0; k <= ck.depth; k++ {
		if err := ctx.Err(); err != nil {
			return o, err
		}
		depth := d.rec.begin(root, spDepth, d.check, laneMain)
		d.parent = depth
		status, err := step(k, &o)
		d.rec.end(depth)
		switch {
		case err != nil:
			return o, fmt.Errorf("%s: depth %d: %w", ck.name, k, err)
		case status == sat.Sat:
			o.Verdict, o.K = engine.Falsified, k
			return o, nil
		case status == sat.Unsat:
			o.K = k
		default:
			return o, fmt.Errorf("%s: depth %d came back %v", ck.name, k, status)
		}
	}
	return o, nil
}

// replay extracts the counter-example and simulates it, as the engine
// does before it reports Falsified.
func (d *driver) replay(u *unroll.Unroller, extract func() *unroll.Trace, o *outcome) error {
	var ok bool
	d.in(spUnrollTrace, func() {
		tr := extract()
		o.TraceSteps = len(tr.Inputs)
		ok = u.Replay(tr)
	})
	if !ok {
		return errors.New("counter-example failed replay")
	}
	return nil
}

// scratch returns the depth step of engine's runBMCScratch: formula,
// solver and recorder are built anew at every depth.
func (d *driver) scratch(ctx context.Context, u *unroll.Unroller) func(k int, o *outcome) (sat.Status, error) {
	board := core.NewScoreBoard(core.WeightedSum)
	return func(k int, o *outcome) (sat.Status, error) {
		var f *cnf.Formula
		d.in(spUnrollFormula, func() { f = u.Formula(k) })
		d.counts.encoded += int64(f.NumClauses())
		o.Clauses += int64(f.NumClauses())

		so := solverOptions(ctx)
		var rec *core.Recorder
		d.in(spCoreConfigure, func() {
			core.OrderDynamic.ConfigureWithDivisor(&so, board, f, core.SwitchDivisor)
			rec = core.NewRecorder(f.NumClauses())
			so.Recorder = rec
		})

		var s *sat.Solver
		d.inSat(spSatLoad, func() { s = sat.New(f, so) })
		d.counts.loaded += int64(f.NumClauses())
		var r sat.Result
		d.inSat(spSatSolve, func() { r = s.Solve() })
		o.addStats(r.Stats)

		switch r.Status {
		case sat.Sat:
			return r.Status, d.replay(u, func() *unroll.Trace { return u.ExtractTrace(r.Model, k) }, o)
		case sat.Unsat:
			var coreIDs []int
			var coreVars []lits.Var
			d.in(spCoreExtract, func() {
				coreIDs = rec.Core()
				coreVars = rec.CoreVars(f)
			})
			d.counts.coreClauses += int64(len(coreIDs))
			d.counts.formulaClauses += int64(f.NumClauses())
			d.counts.recorderBytes = max(d.counts.recorderBytes, rec.ApproxBytes())
			d.in(spCoreBoard, func() { board.Update(coreVars, k+1) })
		case sat.Unknown, sat.Interrupted:
		}
		return r.Status, nil
	}
}

// incremental returns the depth step of engine's runBMCIncremental: one
// solver and one recorder live across the depths and take each frame's
// clauses as they come.
func (d *driver) incremental(ctx context.Context, u *unroll.Unroller) func(k int, o *outcome) (sat.Status, error) {
	dl := u.Delta()
	src := racer.DeltaSource(dl)
	board := core.NewScoreBoard(core.WeightedSum)
	so := solverOptions(ctx)
	rec := core.NewIncrementalRecorder()
	so.Recorder = rec
	var solver *sat.Solver
	d.inSat(spSatLoad, func() { solver = sat.New(cnf.New(0), so) })
	clausesByID := make(map[sat.ClauseID]cnf.Clause)
	totalClauses, totalLits := 0, 0

	return func(k int, o *outcome) (sat.Status, error) {
		var frame *cnf.Formula
		d.in(spUnrollFrame, func() { frame = dl.Frame(k) })
		d.counts.encoded += int64(frame.NumClauses())
		d.inSat(spSatLoad, func() {
			solver.AddVars(frame.NumVars)
			for _, cl := range frame.Clauses {
				clausesByID[solver.AddClause(cl)] = cl
				totalLits += len(cl)
			}
		})
		totalClauses += frame.NumClauses()
		d.counts.loaded += int64(frame.NumClauses())
		o.Clauses = int64(totalClauses)

		d.in(spCoreConfigure, func() {
			racer.ApplyStrategy(solver, core.OrderDynamic, board, src, k, totalLits, core.SwitchDivisor)
		})
		var r sat.Result
		d.inSat(spSatSolve, func() { r = solver.SolveAssuming([]lits.Lit{dl.ActLit(k)}) })
		o.addStats(r.Stats)

		switch r.Status {
		case sat.Sat:
			return r.Status, d.replay(u, func() *unroll.Trace { return dl.ExtractTrace(r.Model, k) }, o)
		case sat.Unsat:
			if !rec.HasProof() {
				break
			}
			var coreIDs []sat.ClauseID
			var coreVars []lits.Var
			d.in(spCoreExtract, func() {
				coreIDs = rec.Core()
				coreVars = racer.CoreVars(src, coreIDs, clausesByID, frame.NumVars)
			})
			d.counts.coreClauses += int64(len(coreIDs))
			d.counts.formulaClauses += int64(totalClauses)
			d.counts.recorderBytes = max(d.counts.recorderBytes, rec.ApproxBytes())
			d.in(spCoreBoard, func() { board.Update(coreVars, k+1) })
			rec.ResetFinal()
		case sat.Unknown, sat.Interrupted:
		}
		return r.Status, nil
	}
}

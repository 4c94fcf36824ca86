package main

import (
	"sync"

	"repro/internal/cnf"
	"repro/internal/engine"
	"repro/internal/lits"
	"repro/internal/obs"
	"repro/internal/portfolio"
)

// checkTrace is the traced run's view of one pool-based check (k-induction
// warm pools, the fleet): Session.Check runs as it is, and the benchmark
// observes it from the three seams the engine offers — the progress
// stream (depth spans, bus counts), the Executor (race, frame and clause
// payload spans) and a metrics registry read once at the end (encode time
// inside the pools, wire counts).
type checkTrace struct {
	rec   *recorder
	check int
	reg   *obs.Registry

	mu   sync.Mutex
	root int
	// open is the running depth span of each query; races and payloads
	// of the query become its children.
	open   map[engine.Query]int
	counts layerCounts
}

func newCheckTrace(rec *recorder, check int) *checkTrace {
	return &checkTrace{rec: rec, check: check, reg: obs.NewRegistry(), root: noParent, open: map[engine.Query]int{}}
}

// onEvent is the session's progress hook. The engine calls it from the
// depth loop's goroutine only.
func (t *checkTrace) onEvent(e engine.Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch e.Kind {
	case engine.DepthStarted:
		t.open[e.Query] = t.rec.begin(t.root, spPoolDepth, t.check, string(e.Query))
	case engine.DepthFinished:
		if id, ok := t.open[e.Query]; ok {
			t.rec.end(id)
			delete(t.open, e.Query)
		}
		t.counts.coreClauses += int64(e.Depth.CoreClauses)
		if e.Depth.CoreClauses > 0 {
			t.counts.formulaClauses += int64(e.Depth.FormulaClauses)
		}
		t.counts.recorderBytes = max(t.counts.recorderBytes, e.Depth.RecorderBytes)
	case engine.RaceFinished:
		// The executor decorator already saw the race.
	case engine.ExchangeFlushed:
		for _, row := range e.Exchange {
			t.counts.busExported += row.Exported
			t.counts.busImported += row.Imported
			t.counts.busDropped += row.DedupDropped
		}
	}
}

// parentOf returns the span a call for query belongs under.
func (t *checkTrace) parentOf(q engine.Query) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.open[q]; ok {
		return id
	}
	return t.root
}

// spanExecutor forwards every Executor call to inner exactly once, with a
// span around it. raceSpan names the race spans after the layer that
// really runs them (racer for the local pool, remote for the fleet).
type spanExecutor struct {
	inner    engine.Executor
	t        *checkTrace
	raceSpan string
}

// attempts records one sat.solve span per attempt that ran, from the
// times the race reports.
func (e *spanExecutor) attempts(parent int, q engine.Query, race *portfolio.RaceResult) {
	for _, o := range race.Outcomes {
		if !o.Skipped {
			e.t.rec.add(parent, spSatSolve, e.t.check, string(q)+":"+o.Name, race.Start.Add(o.Wait), o.Wall)
		}
	}
	e.t.mu.Lock()
	e.t.counts.races++
	e.t.mu.Unlock()
}

func (e *spanExecutor) Race(q engine.Query, f *cnf.Formula, attempts []portfolio.Attempt, jobs int, stop <-chan struct{}) portfolio.RaceResult {
	id := e.t.rec.begin(e.t.parentOf(q), e.raceSpan, e.t.check, string(q))
	res := e.inner.Race(q, f, attempts, jobs, stop)
	e.t.rec.end(id)
	e.attempts(id, q, &res)
	return res
}

func (e *spanExecutor) RaceLive(q engine.Query, attempts []portfolio.LiveAttempt, assumps []lits.Lit, jobs int, stop <-chan struct{}) portfolio.RaceResult {
	id := e.t.rec.begin(e.t.parentOf(q), e.raceSpan, e.t.check, string(q))
	res := e.inner.RaceLive(q, attempts, assumps, jobs, stop)
	e.t.rec.end(id)
	e.attempts(id, q, &res)
	return res
}

func (e *spanExecutor) OnClausePayload(q engine.Query, k int, from string, clauses []cnf.Clause) {
	id := e.t.rec.begin(e.t.parentOf(q), spRemoteClauses, e.t.check, string(q))
	e.inner.OnClausePayload(q, k, from, clauses)
	e.t.rec.end(id)
}

// spanFrameExecutor is spanExecutor around an executor that also mirrors
// frames. It is a separate type because the engine feeds frames to any
// executor that has OnFrame: the decorator must have it exactly when the
// executor it wraps does.
type spanFrameExecutor struct {
	spanExecutor
	sink engine.FrameSink
}

func (e *spanFrameExecutor) OnFrame(q engine.Query, k int, frame *cnf.Formula) {
	id := e.t.rec.begin(e.t.parentOf(q), spRemoteFrame, e.t.check, string(q))
	e.sink.OnFrame(q, k, frame)
	e.t.rec.end(id)
}

// wrap decorates ex for this check.
func (t *checkTrace) wrap(ex engine.Executor, raceSpan string) engine.Executor {
	se := spanExecutor{inner: ex, t: t, raceSpan: raceSpan}
	if sink, ok := ex.(engine.FrameSink); ok {
		return &spanFrameExecutor{se, sink}
	}
	return &se
}

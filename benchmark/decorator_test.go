package main

import (
	"testing"

	"repro/internal/cnf"
	"repro/internal/engine"
	"repro/internal/lits"
	"repro/internal/portfolio"
)

// countingExecutor counts the calls it receives and returns marked results.
type countingExecutor struct {
	race, live, payload int
	lastQuery           engine.Query
	lastJobs            int
}

func (c *countingExecutor) Race(q engine.Query, _ *cnf.Formula, _ []portfolio.Attempt, jobs int, _ <-chan struct{}) portfolio.RaceResult {
	c.race++
	c.lastQuery, c.lastJobs = q, jobs
	return portfolio.RaceResult{Winner: 41}
}

func (c *countingExecutor) RaceLive(q engine.Query, _ []portfolio.LiveAttempt, _ []lits.Lit, jobs int, _ <-chan struct{}) portfolio.RaceResult {
	c.live++
	c.lastQuery, c.lastJobs = q, jobs
	return portfolio.RaceResult{Winner: 42, Outcomes: []portfolio.AttemptOutcome{{Name: "vsids"}, {Name: "static", Skipped: true}}}
}

func (c *countingExecutor) OnClausePayload(q engine.Query, _ int, _ string, _ []cnf.Clause) {
	c.payload++
	c.lastQuery = q
}

type countingSink struct {
	countingExecutor
	frames int
}

func (c *countingSink) OnFrame(engine.Query, int, *cnf.Formula) { c.frames++ }

func TestDecoratorForwardsEveryCallOnce(t *testing.T) {
	rec := &recorder{}
	ct := newCheckTrace(rec, 3)
	ct.root = rec.begin(noParent, spCheck, 3, laneMain)
	inner := &countingSink{}
	ex := ct.wrap(inner, spRemoteRace)

	if r := ex.Race(engine.QueryBMC, cnf.New(0), nil, 2, nil); r.Winner != 41 {
		t.Errorf("Race result not passed through: %+v", r)
	}
	ct.onEvent(engine.Event{Kind: engine.DepthStarted, Query: engine.QueryStep, K: 0})
	if r := ex.RaceLive(engine.QueryStep, nil, nil, 1, nil); r.Winner != 42 {
		t.Errorf("RaceLive result not passed through: %+v", r)
	}
	ex.OnClausePayload(engine.QueryBase, 1, "vsids", nil)
	sink, ok := ex.(engine.FrameSink)
	if !ok {
		t.Fatal("decorator around a FrameSink is not a FrameSink")
	}
	sink.OnFrame(engine.QueryBMC, 0, cnf.New(0))
	ct.onEvent(engine.Event{Kind: engine.DepthFinished, Query: engine.QueryStep, K: 0})
	rec.end(ct.root)

	if inner.race != 1 || inner.live != 1 || inner.payload != 1 || inner.frames != 1 {
		t.Errorf("calls forwarded: race %d, live %d, payload %d, frames %d; want one each", inner.race, inner.live, inner.payload, inner.frames)
	}
	if ct.counts.races != 2 {
		t.Errorf("races counted: %d, want 2", ct.counts.races)
	}

	names := map[string]int{}
	var depth, live span
	for _, s := range rec.snapshot() {
		names[s.Name]++
		switch {
		case s.Name == spPoolDepth:
			depth = s
		case s.Name == spRemoteRace && s.Lane == string(engine.QueryStep):
			live = s
		}
	}
	// One solve span for the attempt that ran, none for the skipped one.
	want := map[string]int{spCheck: 1, spPoolDepth: 1, spRemoteRace: 2, spSatSolve: 1, spRemoteClauses: 1, spRemoteFrame: 1}
	for n, c := range want {
		if names[n] != c {
			t.Errorf("%d %s spans, want %d (all: %v)", names[n], n, c, names)
		}
	}
	if live.Parent != depth.ID {
		t.Errorf("the step race's parent is span %d, want its depth span %d", live.Parent, depth.ID)
	}
}

func TestDecoratorIsNoFrameSinkAroundPlainExecutor(t *testing.T) {
	ct := newCheckTrace(&recorder{}, 0)
	if _, ok := ct.wrap(&countingExecutor{}, spLocalRace).(engine.FrameSink); ok {
		t.Error("decorator around a plain executor must not accept frames: the engine would start feeding them")
	}
}

package engine

import (
	"strconv"

	"repro/internal/obs"
	"repro/internal/portfolio"
	"repro/internal/sat"
	"repro/internal/unroll"
)

// Observability plumbing of the session: depth/race/racer spans on the
// configured tracer and the RaceFinished mirror into the progress
// stream. Everything here is nil-safe — a session without
// WithMetrics/WithTracer pays the nil checks and nothing else.
//
// Trace layout: the root "check" span lives on the "engine" lane; each
// query's depth and race spans share the query's lane ("bmc", "base",
// "step"), nesting by containment; each racer attempt is synthesized
// retroactively (from the race's start plus the attempt's queue wait) on
// its own "<query>:<strategy>" lane, so concurrent attempts never falsely
// nest.

// beginDepth opens the depth-k span on the query's lane.
func (s *Session) beginDepth(query Query, k int) *obs.Span {
	sp := s.cfg.Tracer.Begin(string(query), "depth "+strconv.Itoa(k))
	sp.SetArg("k", k)
	return sp
}

// finishDepth closes the depth span with the depth's outcome and emits
// the DepthFinished event — the single exit point of every depth.
// Instrumented sessions also stamp the depth's memory columns here: one
// ReadMemStats per depth boundary, far from any solver loop, which is
// why the loop passes ds before appending it to Result.PerDepth.
func (s *Session) finishDepth(sp *obs.Span, query Query, ds *DepthStats) {
	if s.mem != nil {
		m := s.mem.Sample()
		ds.HeapAllocBytes = m.HeapAlloc
		ds.TotalAllocBytes = m.TotalAlloc - s.memBase.TotalAlloc
		ds.GCCount = m.GCCount - s.memBase.GCCount
	}
	if sp != nil {
		sp.SetArg("status", ds.Status.String())
		sp.SetArg("conflicts", ds.Stats.Conflicts)
		if ds.Winner != "" {
			sp.SetArg("winner", ds.Winner)
		}
		sp.End()
	}
	s.emit(Event{Kind: DepthFinished, Query: query, K: ds.K, Depth: *ds})
}

// observeRace records a joined race: one race span on the query's lane,
// one attempt span per racer that ran (on its strategy's lane,
// reconstructed from the race start, the attempt's queue wait, and its
// wall time), and the RaceFinished mirror into the progress stream.
func (s *Session) observeRace(query Query, k int, race *portfolio.RaceResult) {
	if tr := s.cfg.Tracer; tr != nil {
		args := map[string]any{"k": k}
		if race.Winner >= 0 {
			args["winner"] = race.WinnerName()
			args["verdict"] = race.Result.Status.String()
			args["conflicts"] = race.Result.Stats.Conflicts
		}
		tr.Complete(string(query), "race "+strconv.Itoa(k), race.Start, race.Wall, args)
		for i, o := range race.Outcomes {
			if o.Skipped {
				continue
			}
			tr.Complete(string(query)+":"+o.Name, "attempt "+strconv.Itoa(k),
				race.Start.Add(o.Wait), o.Wall, map[string]any{
					"k":         k,
					"status":    o.Status.String(),
					"conflicts": o.Stats.Conflicts,
					"won":       i == race.Winner,
				})
		}
	}
	if s.cfg.Progress == nil {
		return
	}
	rows := make([]RacerRow, len(race.Outcomes))
	for i, o := range race.Outcomes {
		rows[i] = RacerRow{
			Name:      o.Name,
			Status:    o.Status,
			Conflicts: o.Stats.Conflicts,
			Wall:      o.Wall,
			Wait:      o.Wait,
			Winner:    i == race.Winner,
			Canceled:  o.Canceled,
			Skipped:   o.Skipped,
		}
	}
	s.emit(Event{Kind: RaceFinished, Query: query, K: k, Racers: rows})
}

// solverMetrics resolves the per-strategy solver metric bundle, nil when
// the session has no registry (so sat.SolveAssuming pays one branch).
func (s *Session) solverMetrics(query Query, strategy string) *sat.Metrics {
	if s.cfg.Metrics == nil {
		return nil
	}
	return sat.NewMetrics(s.cfg.Metrics, "query", string(query), "strategy", strategy)
}

// unrollMetrics resolves the frame-build metric bundle for a query's
// incremental encoder, nil when the session has no registry.
func (s *Session) unrollMetrics(query Query) *unroll.Metrics {
	if s.cfg.Metrics == nil {
		return nil
	}
	return unroll.NewMetrics(s.cfg.Metrics, "query", string(query))
}

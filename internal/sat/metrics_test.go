package sat

import (
	"slices"
	"testing"

	"repro/internal/obs"
)

func TestMetricsFlush(t *testing.T) {
	reg := obs.NewRegistry()
	opts := Options{}
	opts.Metrics = NewMetrics(reg, "strategy", "vsids")
	s := New(pigeonhole(5, 4), opts)
	res := s.Solve()
	if res.Status != Unsat {
		t.Fatalf("status=%v", res.Status)
	}
	if got := opts.Metrics.Solves.Value(); got != 1 {
		t.Errorf("solves counter = %d, want 1", got)
	}
	if got := opts.Metrics.Conflicts.Value(); got != res.Stats.Conflicts {
		t.Errorf("conflicts counter = %d, want %d", got, res.Stats.Conflicts)
	}
	if got := opts.Metrics.Decisions.Value(); got != res.Stats.Decisions {
		t.Errorf("decisions counter = %d, want %d", got, res.Stats.Decisions)
	}
	if opts.Metrics.SolveNanos.Value() <= 0 {
		t.Errorf("solve nanos not recorded")
	}
	if got := reg.Snapshot().Histograms[`solver_conflicts_per_solve{strategy="vsids"}`].Count; got != 1 {
		t.Errorf("conflicts-per-solve observations = %d, want 1", got)
	}
	// The clause-database gauges are flushed alongside the counters: a
	// pigeonhole refutation must have learnt clauses installed, and the
	// byte gauge is an accounting of what the arena's pages, the watch
	// pages and the per-literal watch records hold.
	learnt := opts.Metrics.ClausesLearnt.Value()
	if learnt <= 0 || learnt != int64(len(s.learnts)) {
		t.Errorf("clauses-learnt gauge = %d, want the %d learnt clauses held", learnt, len(s.learnts))
	}
	words, watchers := 0, 0
	for _, pg := range append(slices.Clone(s.ca.pages), s.ca.spare...) {
		words += cap(pg)
	}
	for _, pg := range s.watches.pages {
		watchers += len(pg)
	}
	want := int64(4*words + 8*watchers + 12*cap(s.watches.lists))
	if got := opts.Metrics.ClausesBytes.Value(); got != want || watchers == 0 {
		t.Errorf("clauses-bytes gauge = %d, want %d (%d arena words held, %d watchers' room, %d records)",
			got, want, words, watchers, cap(s.watches.lists))
	}
	names := reg.Snapshot().Gauges
	for _, want := range []string{
		`solver_clauses_learnt{strategy="vsids"}`,
		`solver_clauses_bytes{strategy="vsids"}`,
	} {
		if _, ok := names[want]; !ok {
			t.Errorf("gauge %s missing from snapshot (have %v)", want, names)
		}
	}
}

func TestMetricsNilNoop(t *testing.T) {
	// A nil bundle and a bundle of nil handles must both be safe.
	var m *Metrics
	m.flush(Stats{Conflicts: 3})
	m.flushDB(1, 100)
	NewMetrics(nil).flush(Stats{Conflicts: 3})
	NewMetrics(nil).flushDB(1, 100)
}

// BenchmarkSolverMetricsOverhead compares a full solve of a fixed UNSAT
// instance with no metrics sink (the one-branch no-op path the default
// configuration takes) against the same solve flushing into a live
// registry — the per-call cost the observability layer adds to the
// solver. The two sub-benchmark ns/op figures should be statistically
// indistinguishable: the flush is a handful of atomic adds once per
// Solve call, not per search step.
func BenchmarkSolverMetricsOverhead(b *testing.B) {
	f := pigeonhole(7, 6)
	b.Run("noop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if res := New(f, Options{}).Solve(); res.Status != Unsat {
				b.Fatalf("status=%v", res.Status)
			}
		}
	})
	b.Run("instrumented", func(b *testing.B) {
		opts := Options{}
		opts.Metrics = NewMetrics(obs.NewRegistry(), "query", "bench", "strategy", "vsids")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res := New(f, opts).Solve(); res.Status != Unsat {
				b.Fatalf("status=%v", res.Status)
			}
		}
		if got := opts.Metrics.Solves.Value(); got != int64(b.N) {
			b.Fatalf("solves counter = %d, want %d", got, b.N)
		}
	})
}

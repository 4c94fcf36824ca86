package engine_test

import (
	"iter"
	"maps"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/sat"
	"repro/internal/unroll"
)

// checkView is what a check reports apart from its wall times and Metrics:
// the parts instrumenting it must leave alone.
type checkView struct {
	Verdict                     engine.Verdict
	K                           int
	Total, BaseStats, StepStats sat.Stats
	Trace                       *unroll.Trace
	// Depths is every DepthFinished event's query and DepthStats, in
	// delivery order.
	Depths []engine.Event
}

// viewCheck runs one check, collecting its DepthFinished events, and
// returns its view with every wall time zeroed. A falsified k-induction
// check leaves the step lane out: how far its cancelled race got depends
// on timing.
func viewCheck(t *testing.T, name string, opts ...engine.Option) (checkView, *engine.Result) {
	t.Helper()
	var depths []engine.Event
	progress := engine.WithProgress(func(e engine.Event) {
		if e.Kind == engine.DepthFinished {
			d := e.Depth
			d.Wall, d.EncodeWall, d.SolveWall, d.Stats.SolveTime = 0, 0, 0, 0
			depths = append(depths, engine.Event{Kind: e.Kind, Query: e.Query, K: e.K, Depth: d})
		}
	})
	res := checkModel(t, goldenModel(t, name), append([]engine.Option{progress}, opts...)...)
	v := checkView{Verdict: res.Verdict, K: res.K, Total: res.Total, BaseStats: res.BaseStats, StepStats: res.StepStats, Trace: res.Trace}
	v.Total.SolveTime, v.BaseStats.SolveTime, v.StepStats.SolveTime = 0, 0, 0
	for _, e := range depths {
		if res.Engine == engine.KInduction && res.Verdict == engine.Falsified && e.Query == engine.QueryStep {
			continue
		}
		v.Depths = append(v.Depths, e)
	}
	if res.Engine == engine.KInduction && res.Verdict == engine.Falsified {
		v.StepStats = sat.Stats{}
	}
	return v, res
}

// TestMemoryTelemetry: instrumenting a check changes its Result's Metrics
// and nothing else. Every golden shape runs a falsified and a holding model
// of TestGoldenCounters plain, then with a registry and a tracer attached.
// Once wall times are zeroed, the two runs must agree on verdict, K, the
// solver statistics, the trace and every DepthFinished row — memory
// columns included, which are read from the structures on both. The
// instrumented run's Metrics carries the solver clause-database gauge and
// no process-memory reading; the plain run's is nil.
func TestMemoryTelemetry(t *testing.T) {
	for shape, shapeOpts := range goldenShapes() {
		for _, row := range []struct {
			model string
			depth int
		}{{"cnt_w4_t9", 12}, {"twin_w8", 8}} {
			what := shape + "/" + row.model
			opts := append([]engine.Option{engine.WithBudgets(row.depth, 0)}, shapeOpts...)
			plain, pres := viewCheck(t, row.model, opts...)
			inst, ires := viewCheck(t, row.model, append(opts,
				engine.WithMetrics(obs.NewRegistry()), engine.WithTracer(obs.NewTracer()))...)

			if len(plain.Depths) == 0 {
				t.Errorf("%s: no DepthFinished events", what)
			}
			if len(plain.Depths) != len(inst.Depths) {
				t.Errorf("%s: %d depth rows plain, %d instrumented", what, len(plain.Depths), len(inst.Depths))
			}
			for i := range min(len(plain.Depths), len(inst.Depths)) {
				if p, q := plain.Depths[i], inst.Depths[i]; !reflect.DeepEqual(p, q) {
					t.Errorf("%s: %s depth %d differs\nplain:        %+v\ninstrumented: %+v", what, p.Query, p.K, p.Depth, q.Depth)
				}
			}
			plain.Depths, inst.Depths = nil, nil
			if !reflect.DeepEqual(plain, inst) {
				t.Errorf("%s: result differs\nplain:        %+v\ninstrumented: %+v", what, plain, inst)
			}

			if pres.Metrics != nil {
				t.Errorf("%s: plain check carries Metrics", what)
			}
			if ires.Metrics == nil {
				t.Fatalf("%s: instrumented check carries no Metrics", what)
			}
			snap := ires.Metrics
			clauseBytes := false
			for _, names := range []iter.Seq[string]{maps.Keys(snap.Counters), maps.Keys(snap.Gauges), maps.Keys(snap.Histograms)} {
				for name := range names {
					clauseBytes = clauseBytes || strings.HasPrefix(name, "solver_clauses_bytes{")
					if strings.HasPrefix(name, "mem_") {
						t.Errorf("%s: Metrics carries %s", what, name)
					}
				}
			}
			if !clauseBytes {
				t.Errorf("%s: no solver_clauses_bytes series in Metrics gauges: %v", what, snap.Gauges)
			}
		}
	}
}

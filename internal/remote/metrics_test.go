package remote

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
)

// metricCatalogue is every metric base name the tree registers: the
// solver, unroller, portfolio, racer, and the fleet's wire and
// coordinator. The list is golden on purpose — a
// renamed constant, a new family or a dropped one fails
// TestMetricCatalogue until this list and README's Observability table
// say the same.
var metricCatalogue = []string{
	"net_bytes_recv_total",
	"net_bytes_sent_total",
	"net_frames_recv_total",
	"net_frames_sent_total",
	"portfolio_aborted_races_total",
	"portfolio_loser_conflicts_total",
	"portfolio_queue_wait_nanos",
	"portfolio_races_total",
	"portfolio_wins_total",
	"racer_conflicts_total",
	"racer_frames_loaded_total",
	"racer_wins_total",
	"remote_cancels_total",
	"remote_fallback_races_total",
	"remote_races_total",
	"remote_reconnects_total",
	"remote_wins_total",
	"remote_worker_connections_total",
	"remote_worker_evictions_total",
	"remote_worker_race_errors_total",
	"remote_worker_races_total",
	"solver_clauses_bytes",
	"solver_clauses_learnt",
	"solver_conflicts_per_solve",
	"solver_conflicts_total",
	"solver_decisions_total",
	"solver_deleted_total",
	"solver_learned_total",
	"solver_propagations_total",
	"solver_restarts_total",
	"solver_solve_nanos_total",
	"solver_solves_total",
	"unroll_build_nanos_total",
	"unroll_clauses_total",
	"unroll_frame_clauses",
	"unroll_frames_total",
	"unroll_literals_total",
	"unroll_vars",
}

// faultOnlyMetrics are the catalogue's names that only a fault moves: a
// healthy run registers them and leaves them at zero. Each names the
// test in this package that drives it and asserts it.
var faultOnlyMetrics = map[string]string{
	"remote_fallback_races_total":     "TestWorkerLostMidCheck",
	"remote_worker_evictions_total":   "TestWorkerLostMidCheck",
	"remote_reconnects_total":         "TestWorkerReconnect",
	"remote_worker_race_errors_total": "TestWorkerRaceRejected",
}

var (
	metricBaseRe  = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)+$`)
	metricLabelRe = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
)

// TestMetricCatalogue is the metrics contract. Every engine shape runs
// every model of remoteShapes, locally and over a 2-worker loopback,
// with one registry attached to the session, the executor and the
// workers. Then every registered name must be in metricCatalogue, with
// a snake_case base and label keys; every catalogued name must be
// non-zero after some run (faultOnlyMetrics excepted, which must still
// be registered); and every catalogued name must have a row in README's
// Observability table.
func TestMetricCatalogue(t *testing.T) {
	reg := obs.NewRegistry()
	populated := map[string]bool{} // by base name: registered, and whether non-zero
	labelKeys := map[string]bool{}
	note := func(name string, on bool) {
		base, keys := splitMetric(name)
		populated[base] = populated[base] || on
		for _, k := range keys {
			labelKeys[k] = true
		}
	}
	// Snapshot after every check: a gauge holds only its last reading.
	collect := func() {
		snap := reg.Snapshot()
		for name, v := range snap.Counters {
			note(name, v != 0)
		}
		for name, v := range snap.Gauges {
			note(name, v != 0)
		}
		for name, h := range snap.Histograms {
			note(name, h.Count != 0)
		}
	}
	for _, shape := range remoteShapes() {
		for _, name := range shape.models {
			m := equivalenceModel(t, name)
			opts := append([]engine.Option{engine.WithBudgets(shape.depth, 0), engine.WithMetrics(reg)}, shape.opts...)
			checkWith(t, m, opts...)
			collect()

			eopts := fastOpts()
			eopts.Metrics = reg
			e, err := NewLoopback(2, eopts, WorkerOptions{Metrics: reg})
			if err != nil {
				t.Fatalf("NewLoopback: %v", err)
			}
			checkWith(t, m, append(opts, engine.WithExecutor(e))...)
			e.Close()
			collect()
		}
	}

	catalogued := map[string]bool{}
	for _, name := range metricCatalogue {
		catalogued[name] = true
	}
	for base := range populated {
		if !metricBaseRe.MatchString(base) {
			t.Errorf("metric %q does not match %s", base, metricBaseRe)
		}
		if !catalogued[base] {
			t.Errorf("metric %q is registered but not in metricCatalogue", base)
		}
	}
	for key := range labelKeys {
		if !metricLabelRe.MatchString(key) {
			t.Errorf("label key %q does not match %s", key, metricLabelRe)
		}
	}
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(readme), "\n## Observability\n")
	section, _, _ = strings.Cut(section, "\n## ")
	for _, name := range metricCatalogue {
		on, registered := populated[name]
		switch _, fault := faultOnlyMetrics[name]; {
		case !registered:
			t.Errorf("metric %q is catalogued but no run registered it", name)
		case !on && !fault:
			t.Errorf("metric %q stays zero on every shape", name)
		}
		if !strings.Contains(section, "`"+name+"`") {
			t.Errorf("metric %q has no row in README's Observability table", name)
		}
	}

	var tests strings.Builder
	files, _ := filepath.Glob("*_test.go")
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		tests.Write(src)
	}
	for name, test := range faultOnlyMetrics {
		if !strings.Contains(tests.String(), "\nfunc "+test+"(t *testing.T) {") {
			t.Errorf("fault-only metric %q cites %s, which is not a test in this package", name, test)
		}
	}
}

// splitMetric splits a series name, base{key="value",...}, into its base
// and label keys. A malformed label block comes back, brace first, as a
// key of its own, which the label convention rejects.
func splitMetric(name string) (base string, keys []string) {
	base, rest, labeled := strings.Cut(name, "{")
	for labeled && rest != "}" {
		key, val, ok := strings.Cut(rest, `="`)
		i := 0
		for ok && i < len(val) && val[i] != '"' {
			if val[i] == '\\' {
				i++
			}
			i++
		}
		if !ok || i >= len(val) {
			return base, append(keys, "{"+rest)
		}
		keys = append(keys, key)
		rest = strings.TrimPrefix(val[i+1:], ",")
	}
	return base, keys
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"

	"repro/internal/bench"
	"repro/internal/engine"
)

func TestReach(t *testing.T) {
	// A counter that may stall reaches its target after exactly target
	// enabled steps.
	if bad, _, err := reach(bench.Counter(4, 9, 0, 0), 0, 20); err != nil || bad != 9 {
		t.Errorf("Counter(4,9): first bad depth %d (err %v), want 9", bad, err)
	}
	if bad, closed, _ := reach(bench.Counter(4, 9, 0, 0), 0, 8); bad != -1 || closed {
		t.Errorf("Counter(4,9) to depth 8: bad %d closed %v, want none and still growing", bad, closed)
	}
	// A counter that wraps at m-1 never shows m, and has m states.
	if bad, closed, _ := reach(bench.GatedCounter(3, 5, 0, 0), 0, 8); bad != -1 || !closed {
		t.Errorf("GatedCounter(3,5): bad %d closed %v, want unreachable and closed", bad, closed)
	}
	if _, _, err := reach(bench.GatedCounter(4, 10, 6, 16), 0, 1); err == nil {
		t.Error("reach must refuse a circuit too large to enumerate")
	}
}

// The smoke anchors are small enough to enumerate, so their expected
// answers can be checked against reachability instead of being taken on
// trust; the full-size anchors are the same generators at larger sizes.
func TestSmokeAnchorsAgreeWithReach(t *testing.T) {
	for _, w := range workloads(true) {
		for _, ck := range w.checks {
			c := ck.build()
			if c.NumLatches() > 12 || c.NumInputs() > 5 {
				continue
			}
			bad, _, err := reach(c, 0, ck.depth)
			if err != nil {
				t.Fatal(err)
			}
			switch ck.want {
			case engine.Falsified:
				if bad != ck.wantK {
					t.Errorf("%s/%s: first bad depth %d, table says %d", w.name, ck.name, bad, ck.wantK)
				}
			case engine.Holds, engine.Proved:
				if bad != -1 {
					t.Errorf("%s/%s: bad state reachable at depth %d, table says %v", w.name, ck.name, bad, ck.want)
				}
			case engine.Unknown:
				t.Errorf("%s/%s expects no verdict", w.name, ck.name)
			}
		}
	}
}

func TestProbesComeFromTheSeed(t *testing.T) {
	names := func(w workload) []string {
		var ns []string
		for _, ck := range w.checks {
			ns = append(ns, ck.name)
		}
		return ns
	}
	distinct := map[string]bool{}
	for i, w := range workloads(false) {
		for seed := uint64(1); seed <= 40; seed++ {
			a, err := probesFor(w, i, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			b, _ := probesFor(w, i, seed)
			if !reflect.DeepEqual(names(a), names(b)) {
				t.Fatalf("%s seed %d: probes differ between two calls", w.name, seed)
			}
			if len(a.checks) != probesPerWorkload {
				t.Fatalf("%s seed %d: %d probes", w.name, seed, len(a.checks))
			}
			for j, ck := range a.checks {
				if ck.shape != w.checks[j%len(w.checks)].shape {
					t.Errorf("%s: probe %d has shape %v", w.name, j, ck.shape)
				}
				distinct[ck.name[len("probe0_"):]] = true
			}
		}
	}
	if len(distinct) < 20 {
		t.Errorf("forty seeds drew only %d distinct probe circuits", len(distinct))
	}
}

// The whole pipeline at smoke sizes: both modes exit 0, report every
// metric BENCHMARK.json names for the mode, and decide every check.
func TestSmokeRun(t *testing.T) {
	for _, trace := range []bool{false, true} {
		var out, errOut bytes.Buffer
		dir := t.TempDir()
		code := run(context.Background(), "all", options{seed: 7, smoke: true, trace: trace, outDir: dir}, &out, &errOut)
		if code != 0 {
			t.Fatalf("trace=%v: exit code %d\n%s", trace, code, errOut.String())
		}
		var reports []report
		if err := json.Unmarshal(out.Bytes(), &reports); err != nil {
			t.Fatal(err)
		}
		if len(reports) != 4 {
			t.Fatalf("%d reports, want 4", len(reports))
		}
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		for _, r := range reports {
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d %v", r.Workload, r.Correct, r.Attempted, r.Failed, r.Failures)
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s: %d metrics, want %d", r.Workload, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := r.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s: metric %s missing or in unit %q", r.Workload, d.Name, m.Unit)
				}
			}
			if trace {
				if _, err := os.Stat(dir + "/" + r.Workload + ".trace.json"); err != nil {
					t.Error(err)
				}
				if r.Metrics[mSatConflicts].Value == 0 || r.Metrics[mEngineCheckS].Value == 0 {
					t.Errorf("%s: traced run counted no conflicts or no time", r.Workload)
				}
			} else if r.Metrics[mDecidedShare].Value != 1 || r.Metrics[mPeakHeapMB].Value <= 0 {
				t.Errorf("%s: decided_share %v, peak_heap_mb %v", r.Workload, r.Metrics[mDecidedShare].Value, r.Metrics[mPeakHeapMB].Value)
			}
		}
	}
}

// One workload prints the line the accepting pipeline reads: exactly the
// four keys.
func TestResultLine(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(context.Background(), wlFleetWire, options{seed: 1, smoke: true}, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d\n%s", code, errOut.String())
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(out.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := line[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(line) != 4 {
		t.Errorf("result line has %d keys, want 4: %s", len(line), out.String())
	}
	if code := run(context.Background(), "no_such_workload", options{smoke: true}, &out, &errOut); code == 0 {
		t.Error("an unknown workload must not exit 0")
	}
}

// A check that answers differently from pass to pass must fail the run by
// name, and a wrong answer must be judged wrong.
func TestGuards(t *testing.T) {
	w := workloads(true)[0]
	a := []outcome{{Verdict: engine.Holds, K: 4, Conflicts: 777}}
	b := []outcome{{Verdict: engine.Holds, K: 4, Conflicts: 778}}
	err := sameOutcomes(w, "pass 2", a, b)
	if err == nil || !regexp.MustCompile(`nondeterministic_workload: search_scratch/add_w4`).MatchString(err.Error()) {
		t.Errorf("sameOutcomes = %v", err)
	}
	if sameOutcomes(w, "pass 2", a, a) != nil {
		t.Error("equal outcomes reported as different")
	}
	ck := check{want: engine.Falsified, wantK: 3}
	for _, o := range []outcome{
		{Verdict: engine.Unknown, K: 3},
		{Verdict: engine.Falsified, K: 2, TraceSteps: 3},
		{Verdict: engine.Falsified, K: 3, TraceSteps: 3},
	} {
		if judge(ck, o) == "" {
			t.Errorf("judge accepted %+v for falsified/3", o)
		}
	}
	if why := judge(ck, outcome{Verdict: engine.Falsified, K: 3, TraceSteps: 4}); why != "" {
		t.Errorf("judge rejected the right answer: %s", why)
	}
	bad := disagreements(map[string]float64{mVerdictS: 1, mAllocMB: 100}, map[string]float64{mVerdictS: 1.04, mAllocMB: 98.5})
	if len(bad) != 1 || !regexp.MustCompile(`^aa: alloc_mb `).MatchString(bad[0]) {
		t.Errorf("disagreements = %v, want alloc_mb only (1.5%% against half of 2%%; verdict_s 4%% against half of 25%%)", bad)
	}
	if why := judge(check{want: engine.Proved, wantK: anyK}, outcome{Verdict: engine.Proved, K: 9}); why != "" {
		t.Errorf("judge rejected a proof at an unpinned depth: %s", why)
	}
}

// BENCHMARK.json and the code must name the same workloads and metrics,
// with the same units, directions and bounds, inside the contract's limits.
func TestBenchmarkJSONInSync(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var doc struct {
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	code := workloads(false)
	if len(doc.Workloads) != len(code) || len(code) < 2 || len(code) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code (2 to 8 allowed)", len(doc.Workloads), len(code))
	}
	for i, w := range doc.Workloads {
		name(w.Name)
		if w.Name != code[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the code", i, w.Name, code[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got []jsonMetric, want []metricDef, limit int) {
		if len(got) != len(want) || len(got) < 1 || len(got) > limit {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the code (1 to %d allowed)", len(got), kind, len(want), limit)
		}
		for i, m := range got {
			name(m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q is outside the contract's alphabet", m.Name, m.Unit)
			}
			if d := want[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the code %+v", kind, i, m, d)
			}
		}
	}
	same("end-to-end", doc.EndToEnd, endToEnd, 16)
	same("per-layer", doc.PerLayer, perLayer, 128)
	setup := false
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g is outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == mSetupS && d.Unit == "s" && d.Better == lower)
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
}

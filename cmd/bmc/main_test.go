package main

import (
	"bytes"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/aiger"
	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/remote"
)

// validate runs the CLI's two-stage validation — flag translation, then
// engine.Config.Validate — exactly as run() does.
func validate(fc flagConfig) error {
	eo, err := buildOptions(fc)
	if err != nil {
		return err
	}
	cfg := engine.NewConfig(eo...)
	return cfg.Validate()
}

// defaults fills the flag fields whose zero value differs from the
// flag's default.
func defaults(fc flagConfig) flagConfig {
	if fc.score == "" {
		fc.score = "weighted-sum"
	}
	if fc.depth == 0 {
		fc.depth = 20
	}
	return fc
}

// TestValidateFlags pins the up-front flag-combination rules: meaningless
// combinations error out instead of being silently ignored. The matrix
// itself lives in engine.Config.Validate — this test asserts the CLI
// translation surfaces every case, with its message.
func TestValidateFlags(t *testing.T) {
	valid := flagConfig{engine: "bmc", order: "dynamic"}
	cases := []struct {
		name    string
		fc      flagConfig
		wantErr string // substring of the error, "" = must pass
	}{
		{"default", valid, ""},
		{"portfolio", flagConfig{engine: "bmc", order: "portfolio"}, ""},
		{"warm portfolio", flagConfig{engine: "bmc", order: "portfolio", incremental: true}, ""},
		{"warm kind portfolio", flagConfig{engine: "kind", order: "portfolio", incremental: true}, ""},
		{"warm kind single order", flagConfig{engine: "kind", order: "dynamic", incremental: true}, ""},
		{"warm kind timeaxis", flagConfig{engine: "kind", order: "timeaxis", incremental: true}, ""},
		{"cold kind timeaxis", flagConfig{engine: "kind", order: "timeaxis"}, ""},
		{"kind portfolio with strategies", flagConfig{engine: "kind", order: "portfolio", strategies: "vsids,dynamic"}, ""},
		{"portfolio with jobs", flagConfig{engine: "bmc", order: "portfolio", jobs: 4}, ""},
		{"every score mode", flagConfig{engine: "bmc", order: "static", score: "exp-decay"}, ""},

		{"unknown engine", flagConfig{engine: "pdr", order: "dynamic"}, "unknown engine"},
		{"unknown order", flagConfig{engine: "bmc", order: "chrono"}, "unknown order"},
		{"unknown score", flagConfig{engine: "bmc", order: "dynamic", score: "harmonic"}, "unknown score mode"},
		{"bad strategy name", flagConfig{engine: "bmc", order: "portfolio", strategies: "vsids,chrono"}, "bad strategy set"},
		{"negative jobs", flagConfig{engine: "bmc", order: "portfolio", jobs: -1}, "jobs"},
		{"negative depth", flagConfig{engine: "bmc", order: "dynamic", depth: -2}, "max depth"},
		{"negative conflicts", flagConfig{engine: "bmc", order: "dynamic", conflicts: -1}, "conflict budget"},
		{"negative switch divisor", flagConfig{engine: "bmc", order: "dynamic", divisor: -1}, "switch divisor"},
		{"jobs without portfolio", flagConfig{engine: "bmc", order: "dynamic", jobs: 4}, "jobs require"},
		{"strategies without portfolio", flagConfig{engine: "bmc", order: "dynamic", strategies: "vsids"}, "strategy set requires"},
	}
	for _, tc := range cases {
		err := validate(defaults(tc.fc))
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error: %v", tc.name, err)
		case tc.wantErr != "" && err == nil:
			t.Errorf("%s: expected an error mentioning %q, got none", tc.name, tc.wantErr)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// writeModel materializes one suite model as a .aag file for the e2e
// tests.
func writeModel(t *testing.T, name string) string {
	t.Helper()
	m, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("model %s missing", name)
	}
	path := filepath.Join(t.TempDir(), name+".aag")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := aiger.Write(f, m.Build()); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCLIEndToEnd drives run() — the real CLI entry, minus the process
// boundary — across the engine matrix on real .aag files and checks exit
// codes and human-readable output.
func TestCLIEndToEnd(t *testing.T) {
	failing := writeModel(t, "cnt_w4_t9")
	holding := writeModel(t, "twin_w8")
	cases := []struct {
		name     string
		args     []string
		wantCode int
		wantOut  string
	}{
		{"falsified", []string{"-depth=12", failing}, 1, "counter-example of length 9"},
		{"holds", []string{"-depth=5", holding}, 0, "no counter-example up to depth 5"},
		{"verbose portfolio", []string{"-order=portfolio", "-incremental", "-depth=5", "-v", holding}, 0, "portfolio:"},
		{"kind proved", []string{"-engine=kind", "-order=portfolio", "-incremental", "-depth=8", holding}, 0, "proved"},
		{"witness", []string{"-depth=12", "-witness", failing}, 1, "frame  0 inputs:"},
		{"budget", []string{"-conflicts=1", "-depth=6", holding}, 2, "budget exhausted"},
		{"bad flags", []string{"-jobs=3", holding}, 2, ""},
		{"negative switch divisor", []string{"-switch-divisor=-1", holding}, 2, ""},
		{"missing file", []string{"/nonexistent/x.aag"}, 2, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != tc.wantCode {
				t.Fatalf("exit code %d, want %d (stderr: %s)", code, tc.wantCode, stderr.String())
			}
			if tc.wantOut != "" && !strings.Contains(stdout.String(), tc.wantOut) {
				t.Errorf("stdout does not contain %q:\n%s", tc.wantOut, stdout.String())
			}
		})
	}
}

// isDepth reports whether a -v line's first field is a depth, which makes
// it a per-depth row; the verdict line can have as many fields.
func isDepth(field string) bool {
	_, err := strconv.Atoi(field)
	return err == nil
}

// TestCLIVerboseSwitchColumn: -v shows, per depth, whether the dynamic
// ordering handed over to VSIDS and at which decision. On add_w8 the cores
// cover the whole formula and the search outruns the threshold at every
// depth past the first; a parity mixer's cores keep it inside.
func TestCLIVerboseSwitchColumn(t *testing.T) {
	switchColumn := func(model string) []string {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-depth=3", "-v", writeModel(t, model)}, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit code %d (stderr: %s)", model, code, stderr.String())
		}
		var header, col []string
		for _, line := range strings.Split(stdout.String(), "\n") {
			f := strings.Fields(line)
			switch {
			case len(f) > 0 && f[0] == "k":
				header = f
			case header != nil && len(f) == len(header) && isDepth(f[0]):
				col = append(col, f[5])
			}
		}
		if len(header) < 6 || header[5] != "switch" || len(col) != 4 {
			t.Fatalf("%s: want a switch column with one row per depth:\n%s", model, stdout.String())
		}
		return col
	}
	fired := switchColumn("add_w8")
	for k, v := range fired {
		if _, err := strconv.Atoi(v); (err == nil) != (k > 0) {
			t.Errorf("add_w8 depth %d: switch column %q, want a decision count at every depth but the first (%v)", k, v, fired)
		}
	}
	if quiet := switchColumn("mix_w5"); strings.Join(quiet, "") != "----" {
		t.Errorf("mix_w5: switch column %v, want - at every depth", quiet)
	}
}

// TestCLICoreOverlap: -json reports, per depth, the Jaccard overlap of the
// core variables with the previous depth's as core_overlap, absent at depth
// 0, and -v prints the same figures in its overlap column, "-" at depth 0.
// Consecutive cores share variables on both the adder and the parity mixer.
func TestCLICoreOverlap(t *testing.T) {
	for _, model := range []string{"add_w8", "mix_w5"} {
		path := writeModel(t, model)
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-json", "-depth=3", path}, &stdout, &stderr); code != 0 {
			t.Fatalf("%s -json: exit code %d (stderr: %s)", model, code, stderr.String())
		}
		if strings.Count(stdout.String(), `"core_overlap"`) != 3 {
			t.Errorf("%s: want core_overlap at depths 1-3 only:\n%s", model, stdout.String())
		}
		var res engine.Result
		if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
			t.Fatal(err)
		}
		want := []string{"-"}
		for _, d := range res.PerDepth[1:] {
			if d.CoreOverlap == nil || *d.CoreOverlap <= 0 || *d.CoreOverlap > 1 {
				t.Fatalf("%s depth %d: core overlap %v, want one in (0, 1]", model, d.K, d.CoreOverlap)
			}
			want = append(want, strconv.FormatFloat(*d.CoreOverlap, 'f', 3, 64))
		}

		stdout.Reset()
		if code := run([]string{"-v", "-depth=3", path}, &stdout, &stderr); code != 0 {
			t.Fatalf("%s -v: exit code %d (stderr: %s)", model, code, stderr.String())
		}
		var header, col []string
		for _, line := range strings.Split(stdout.String(), "\n") {
			f := strings.Fields(line)
			switch {
			case len(f) > 0 && f[0] == "k":
				header = f
			case header != nil && len(f) == len(header) && isDepth(f[0]):
				col = append(col, f[slices.Index(header, "overlap")])
			}
		}
		if !slices.Equal(col, want) {
			t.Errorf("%s: -v overlap column %v, -json %v", model, col, want)
		}
	}
}

// TestCLIGuidedShare: -json reports per depth how many decisions the
// refined ordering took (stats.GuidedDecisions), and -v prints their share
// of the depth's decisions in its guided column. On add_w8 under the
// dynamic ordering the share is positive from depth 2 on: depth 0 is
// refuted by propagation alone, so its core lies on variables that depth
// 1's level-0 propagation fixes before any decision; and none of it comes
// after the switch to VSIDS. Under VSIDS, which has no guidance, it is zero
// at every depth.
func TestCLIGuidedShare(t *testing.T) {
	path := writeModel(t, "add_w8")
	for _, order := range []string{"dynamic", "vsids"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-json", "-order=" + order, "-depth=3", path}, &stdout, &stderr); code != 0 {
			t.Fatalf("%s -json: exit code %d (stderr: %s)", order, code, stderr.String())
		}
		var res engine.Result
		if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, d := range res.PerDepth {
			guided, all := d.Stats.GuidedDecisions, d.Stats.Decisions
			switch {
			case guided < 0 || guided > all:
				t.Fatalf("%s depth %d: %d guided decisions of %d", order, d.K, guided, all)
			case order == "vsids" && guided != 0:
				t.Errorf("vsids depth %d: %d guided decisions without guidance", d.K, guided)
			case d.Stats.GuidanceSwitched && guided > d.Stats.SwitchDecision:
				t.Errorf("dynamic depth %d: %d guided decisions, but guidance ended after %d", d.K, guided, d.Stats.SwitchDecision)
			case order == "dynamic" && d.K >= 2 && guided == 0:
				t.Errorf("dynamic depth %d: none of %d decisions guided", d.K, all)
			}
			share := "-"
			if all > 0 {
				share = strconv.FormatFloat(float64(guided)/float64(all), 'f', 3, 64)
			}
			want = append(want, share)
		}

		stdout.Reset()
		if code := run([]string{"-v", "-order=" + order, "-depth=3", path}, &stdout, &stderr); code != 0 {
			t.Fatalf("%s -v: exit code %d (stderr: %s)", order, code, stderr.String())
		}
		var header, col []string
		for _, line := range strings.Split(stdout.String(), "\n") {
			f := strings.Fields(line)
			switch {
			case len(f) > 0 && f[0] == "k":
				header = f
			case header != nil && len(f) == len(header) && isDepth(f[0]):
				col = append(col, f[slices.Index(header, "guided")])
			}
		}
		if !slices.Equal(col, want) {
			t.Errorf("%s: -v guided column %v, -json %v", order, col, want)
		}
	}
}

// TestCLIJSON: -json emits exactly one JSON document on stdout that
// round-trips into engine.Result with the verdict, depth, per-depth
// stats, and portfolio telemetry filled in.
func TestCLIJSON(t *testing.T) {
	failing := writeModel(t, "cnt_w4_t9")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-json", "-order=portfolio", "-incremental", "-depth=12", failing}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code %d, want 1 (stderr: %s)", code, stderr.String())
	}
	var res engine.Result
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		t.Fatalf("stdout is not a single JSON result: %v\n%s", err, stdout.String())
	}
	if res.Verdict != engine.Falsified || res.K != 9 {
		t.Errorf("JSON result (%v@%d), want falsified@9", res.Verdict, res.K)
	}
	if len(res.PerDepth) != 10 {
		t.Errorf("JSON result has %d per-depth rows, want 10", len(res.PerDepth))
	}
	if res.Telemetry == nil || len(res.Strategies) == 0 || !res.Warm {
		t.Error("JSON result is missing portfolio telemetry/strategies/warm attribution")
	}
	if res.Trace == nil || res.Trace.Depth != 9 {
		t.Error("JSON result is missing the counter-example trace")
	}
}

// TestCLIRemote drives run() with -remote against a real in-process
// worker daemon over TCP: the distributed check returns the same
// verdict as local, shapes that have no races to distribute are
// rejected up front, and an unreachable worker fails fast.
func TestCLIRemote(t *testing.T) {
	failing := writeModel(t, "cnt_w4_t9")

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		remote.NewWorker(remote.WorkerOptions{Name: "cli-test"}).Serve(ln) //nolint:errcheck // ends with listener close
	}()
	defer func() {
		ln.Close()
		<-served
	}()
	addr := ln.Addr().String()

	t.Run("falsified via worker", func(t *testing.T) {
		var stdout, stderr bytes.Buffer
		args := []string{"-remote", addr, "-order=portfolio", "-incremental", "-depth=12", failing}
		if code := run(args, &stdout, &stderr); code != 1 {
			t.Fatalf("exit code %d, want 1 (stderr: %s)", code, stderr.String())
		}
		for _, want := range []string{"distributing races across 1 worker(s)", "counter-example of length 9"} {
			if !strings.Contains(stdout.String(), want) {
				t.Errorf("stdout does not contain %q:\n%s", want, stdout.String())
			}
		}
	})
	t.Run("json verdict matches local", func(t *testing.T) {
		var local, dist bytes.Buffer
		var stderr bytes.Buffer
		if code := run([]string{"-json", "-order=portfolio", "-incremental", "-depth=12", failing}, &local, &stderr); code != 1 {
			t.Fatalf("local exit code %d (stderr: %s)", code, stderr.String())
		}
		args := []string{"-json", "-remote", addr, "-order=portfolio", "-incremental", "-depth=12", failing}
		if code := run(args, &dist, &stderr); code != 1 {
			t.Fatalf("remote exit code %d (stderr: %s)", code, stderr.String())
		}
		var lres, dres engine.Result
		if err := json.Unmarshal(local.Bytes(), &lres); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(dist.Bytes(), &dres); err != nil {
			t.Fatalf("%v\n%s", err, dist.String())
		}
		if lres.Verdict != dres.Verdict || lres.K != dres.K {
			t.Errorf("remote (%v@%d) diverges from local (%v@%d)",
				dres.Verdict, dres.K, lres.Verdict, lres.K)
		}
	})
	t.Run("rejects non-racing shape", func(t *testing.T) {
		var stdout, stderr bytes.Buffer
		args := []string{"-remote", addr, "-order=dynamic", "-depth=5", failing}
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Fatalf("exit code %d, want 2", code)
		}
		if !strings.Contains(stderr.String(), "needs races to distribute") {
			t.Errorf("stderr does not explain the rejection:\n%s", stderr.String())
		}
	})
	t.Run("unreachable worker", func(t *testing.T) {
		dead, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		deadAddr := dead.Addr().String()
		dead.Close()
		var stdout, stderr bytes.Buffer
		args := []string{"-remote", deadAddr, "-order=portfolio", "-depth=5", failing}
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Fatalf("exit code %d, want 2 (stderr: %s)", code, stderr.String())
		}
	})
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/perfbench"
)

// TestRunWriteAndSelfBaseline is the acceptance path end to end: run the
// smoke suite, write the artifact, and a second run compared against
// that artifact exits 0 with nothing to report (only exact figures are
// compared, so a loaded machine cannot add rows).
func TestRunWriteAndSelfBaseline(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_smoke.json")
	var out, errb bytes.Buffer
	if code := run([]string{"run", "-suite=smoke", "-out=" + path}, &out, &errb); code != 0 {
		t.Fatalf("run exited %d: %s%s", code, out.String(), errb.String())
	}
	art, err := perfbench.ReadArtifact(path)
	if err != nil {
		t.Fatalf("artifact not schema-valid: %v", err)
	}
	if art.Suite != "smoke" {
		t.Fatalf("artifact suite = %q", art.Suite)
	}

	out.Reset()
	second := filepath.Join(dir, "BENCH_smoke2.json")
	if code := run([]string{"run", "-suite=smoke", "-out=" + second, "-baseline=" + path}, &out, &errb); code != 0 {
		t.Fatalf("self-baseline run exited %d: %s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "no divergence from baseline") {
		t.Errorf("self-baseline run reported divergence:\n%s", out.String())
	}
}

// TestPerturbedBaselineFails: a baseline with a perturbed conflict count
// must make the comparison exit nonzero and name the regressed cell and
// metric.
func TestPerturbedBaselineFails(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_smoke.json")
	var out, errb bytes.Buffer
	if code := run([]string{"run", "-suite=smoke", "-out=" + path}, &out, &errb); code != 0 {
		t.Fatalf("run exited %d: %s", code, errb.String())
	}
	art, err := perfbench.ReadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	art.Cells[0].Counters["conflicts"] += 100
	perturbed := filepath.Join(dir, "BENCH_perturbed.json")
	if err := art.WriteFile(perturbed); err != nil {
		t.Fatal(err)
	}

	out.Reset()
	code := run([]string{"compare", "-baseline=" + perturbed, path}, &out, &errb)
	if code != 1 {
		t.Fatalf("perturbed compare exited %d, want 1: %s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), art.Cells[0].Model+"/"+art.Cells[0].Shape) ||
		!strings.Contains(out.String(), "conflicts") {
		t.Errorf("regression table does not name the cell/metric:\n%s", out.String())
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Errorf("no args exited %d, want 2", code)
	}
	if code := run([]string{"bogus"}, &out, &errb); code != 2 {
		t.Errorf("unknown command exited %d, want 2", code)
	}
	errb.Reset()
	if code := run([]string{"run", "-suite=nope"}, &out, &errb); code != 2 {
		t.Errorf("unknown suite exited %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "smoke") || !strings.Contains(errb.String(), "quick") {
		t.Errorf("unknown-suite error does not list valid names: %s", errb.String())
	}
	if code := run([]string{"compare"}, &out, &errb); code != 2 {
		t.Errorf("compare without args exited %d, want 2", code)
	}
}

func TestListCommand(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"list"}, &out, &errb); code != 0 {
		t.Fatalf("list exited %d", code)
	}
	for _, want := range []string{"smoke", "quick", "full", "bmc-warm-shared"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("list output missing %q:\n%s", want, out.String())
		}
	}
}

// TestCorruptBaselineRejected: invalid JSON and wrong-schema files are
// usage errors (exit 2), not regressions.
func TestCorruptBaselineRejected(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"compare", "-baseline=" + bad, bad}, &out, &errb); code != 2 {
		t.Errorf("corrupt baseline exited %d, want 2", code)
	}

	stale := filepath.Join(dir, "stale.json")
	blob, _ := json.Marshal(map[string]any{"schema": perfbench.SchemaVersion + 7, "suite": "s",
		"cells": []map[string]any{{"model": "m", "shape": "x", "verdict": "holds"}}})
	if err := os.WriteFile(stale, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	errb.Reset()
	if code := run([]string{"compare", "-baseline=" + stale, stale}, &out, &errb); code != 2 {
		t.Errorf("stale schema exited %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "schema") {
		t.Errorf("stale-schema error does not mention schema: %s", errb.String())
	}
}

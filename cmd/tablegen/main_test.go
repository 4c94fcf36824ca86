package main

import (
	"bytes"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/perfbench"
)

// TestUnknownExperimentListsRegistry: the -experiment vocabulary is the
// registry's names plus the two non-registry ones, derived — an unknown
// name is a usage error listing exactly that.
func TestUnknownExperimentListsRegistry(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-experiment=nope"}, &out, &errb); code != 2 {
		t.Fatalf("unknown experiment exited %d, want 2", code)
	}
	var want []string
	for _, e := range experiments.All() {
		want = append(want, e.Name)
	}
	want = append(want, "cdgmemory", "all")
	_, list, ok := strings.Cut(strings.TrimSpace(errb.String()), "(valid: ")
	if got := strings.Split(strings.TrimSuffix(list, ")"), ", "); !ok || !slices.Equal(got, want) {
		t.Errorf("error lists %q, want %q", errb.String(), want)
	}
	for _, name := range []string{"warm-kind", "refine", "table1"} {
		if !slices.Contains(want, name) {
			t.Errorf("registry lost %q", name)
		}
	}
}

func TestFigure7ModelFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-experiment=fig7", "-quick", "-csv", "-model=twin_w8"}, &out, &errb); code != 0 {
		t.Fatalf("fig7 exited %d: %s", code, errb.String())
	}
	if !strings.HasPrefix(out.String(), "k,dec_bmc,dec_ref,imp_bmc,imp_ref\n0,") {
		t.Errorf("fig7 csv output wrong:\n%s", out.String())
	}
	errb.Reset()
	if code := run([]string{"-experiment=fig7", "-quick", "-model=nope"}, &out, &errb); code != 1 {
		t.Errorf("unknown -model exited %d, want 1", code)
	}
	if !strings.Contains(errb.String(), `"nope"`) {
		t.Errorf("unknown -model error does not name it: %s", errb.String())
	}
}

// TestBenchJSONArtifact: -bench-json works on a registry experiment that
// never had a converter, and the file is a valid perfbench artifact.
func TestBenchJSONArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_fig7.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-experiment=fig7", "-quick", "-model=twin_w8", "-bench-json=" + path}, &out, &errb); code != 0 {
		t.Fatalf("fig7 exited %d: %s", code, errb.String())
	}
	art, err := perfbench.ReadArtifact(path)
	if err != nil {
		t.Fatalf("artifact not schema-valid: %v", err)
	}
	if art.Suite != "fig7" || len(art.Cells) != 2 || art.Cells[0].Key() != "twin_w8/bmc" || !art.Cells[0].Deterministic {
		t.Errorf("unexpected artifact: %+v", art)
	}
	if fs := perfbench.Compare(art, art); len(fs) != 0 {
		t.Errorf("self-compare found %+v", fs)
	}
}

// TestBenchJSONPath: one selected experiment writes the path as given;
// several write one file each beside it, so none overwrites another.
func TestBenchJSONPath(t *testing.T) {
	for _, tc := range []struct {
		path, experiment string
		several          bool
		want             string
	}{
		{"out/BENCH.json", "warm", false, "out/BENCH.json"},
		{"out/BENCH.json", "warm", true, "out/BENCH-warm.json"},
		{"out/BENCH.json", "warm-kind", true, "out/BENCH-warm-kind.json"},
		{"out.d/BENCH", "table1", true, "out.d/BENCH-table1"},
	} {
		if got := benchJSONPath(tc.path, tc.experiment, tc.several); got != tc.want {
			t.Errorf("benchJSONPath(%q, %q, %v) = %q, want %q", tc.path, tc.experiment, tc.several, got, tc.want)
		}
	}
	seen := map[string]bool{}
	for _, e := range experiments.All() {
		p := benchJSONPath("BENCH.json", e.Name, true)
		if seen[p] {
			t.Errorf("two experiments share artifact path %s", p)
		}
		seen[p] = true
	}
}

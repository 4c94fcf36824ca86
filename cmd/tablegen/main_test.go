package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiments"
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

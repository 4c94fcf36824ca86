package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestAllAnalyzersRegistered pins the roster: every analyzer the issue
// demands must be present in the registry the vet tool serves, so
// a future refactor cannot silently drop one from the gate.
func TestAllAnalyzersRegistered(t *testing.T) {
	want := []string{"litsafe", "hotpath", "ctxflow", "eventexhaustive", "lockorder"}
	got := map[string]bool{}
	for _, a := range lint.All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q is missing a name, doc, or run function", a.Name)
		}
		if got[a.Name] {
			t.Errorf("analyzer %q registered twice", a.Name)
		}
		got[a.Name] = true
	}
	for _, name := range want {
		if !got[name] {
			t.Errorf("analyzer %q is not registered in lint.All()", name)
		}
	}
	if len(got) != len(want) {
		t.Errorf("lint.All() has %d analyzers, want %d; update this test when adding one", len(got), len(want))
	}
}

// TestVetToolProbe checks the cmd/go handshake: -V=full must identify
// the tool in the "name version ..." form vet accepts, -flags must emit
// a JSON flag list, and anything else is a usage error.
func TestVetToolProbe(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-V=full"}, &out, &out); code != 0 {
		t.Fatalf("-V=full exited %d: %s", code, out.String())
	}
	f := strings.Fields(out.String())
	if len(f) < 3 || f[0] != "bmclint" || f[1] != "version" {
		t.Fatalf("-V=full output %q does not match `bmclint version ...`", out.String())
	}
	if f[2] == "devel" && !strings.HasPrefix(f[len(f)-1], "buildID=") {
		t.Fatalf("-V=full devel output %q lacks a buildID= field", out.String())
	}

	out.Reset()
	if code := run([]string{"-flags"}, &out, &out); code != 0 {
		t.Fatalf("-flags exited %d: %s", code, out.String())
	}
	if strings.TrimSpace(out.String()) != "[]" {
		t.Fatalf("-flags output %q, want []", out.String())
	}

	out.Reset()
	if code := run([]string{"./..."}, &out, &out); code != 2 || !strings.Contains(out.String(), "go vet -vettool=") {
		t.Fatalf("bare package pattern exited %d with %q, want 2 and a go vet usage line", code, out.String())
	}
}

// TestEndToEnd builds the tool and runs it through `go vet -vettool`
// over a scratch module with two violations — a same-package litsafe
// one and a cross-package hotpath one that only the facts machinery can
// see. Both must be reported, also when the solver package is vetted
// alone (its clock dependency is then a fact-only unit), and the clean
// packages must pass.
func TestEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and runs go vet")
	}
	tmp := t.TempDir()
	tool := filepath.Join(tmp, "bmclint")
	build := exec.Command("go", "build", "-o", tool, "repro/cmd/bmclint")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building bmclint: %v\n%s", err, out)
	}

	mod := filepath.Join(tmp, "mod")
	writeFile(t, filepath.Join(mod, "go.mod"), "module scratch\n\ngo 1.24\n")
	writeFile(t, filepath.Join(mod, "internal", "lits", "lits.go"), `package lits

type Lit int32

func (l Lit) Neg() Lit { return l ^ 1 }
`)
	writeFile(t, filepath.Join(mod, "consumer", "consumer.go"), `package consumer

import "scratch/internal/lits"

func Flip(l lits.Lit) lits.Lit { return l ^ 1 }
`)
	// The hotpath violation spans a package boundary: only obs's fact
	// knows Tick reaches time.Now, so the finding at the solver's call
	// site exists only when the vetx files carry it.
	writeFile(t, filepath.Join(mod, "internal", "obs", "obs.go"), `package obs

import "time"

func Tick() int64 { return now() }

func now() int64 { return time.Now().UnixNano() }
`)
	writeFile(t, filepath.Join(mod, "internal", "sat", "solver.go"), `package sat

import "scratch/internal/obs"

type Solver struct{ t int64 }

func (s *Solver) solve() { s.t = obs.Tick() }
`)

	vet := func(patterns ...string) (string, error) {
		cmd := exec.Command("go", append([]string{"vet", "-vettool=" + tool}, patterns...)...)
		cmd.Dir = mod
		out, err := cmd.CombinedOutput()
		return string(out), err
	}
	for _, arm := range []struct {
		pattern  string
		findings []string
	}{
		// First, so obs's fact file comes from a fact-only unit rather
		// than from the cache of a run that vetted obs itself.
		{"./internal/sat", []string{"bmclint/hotpath"}},
		{"./...", []string{"bmclint/litsafe", "bmclint/hotpath"}},
	} {
		out, err := vet(arm.pattern)
		if err == nil {
			t.Fatalf("go vet -vettool %s passed on a violating module:\n%s", arm.pattern, out)
		}
		for _, finding := range arm.findings {
			if !strings.Contains(out, finding) {
				t.Fatalf("go vet %s output lacks the %s finding:\n%s", arm.pattern, finding, out)
			}
		}
	}

	if out, err := vet("./internal/lits", "./internal/obs"); err != nil {
		t.Fatalf("go vet -vettool failed on the clean packages: %v\n%s", err, out)
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
		t.Fatal(err)
	}
}

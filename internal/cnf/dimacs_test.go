package cnf

import (
	"math/rand"
	"strings"
	"testing"
)

func TestParseDimacsBasic(t *testing.T) {
	src := `c example
p cnf 3 2
1 -2 0
2 3 0
`
	f, err := ParseDimacsString(src)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumVars != 3 || f.NumClauses() != 2 {
		t.Fatalf("shape: vars=%d clauses=%d", f.NumVars, f.NumClauses())
	}
	if f.Clause(0).String() != "(x1 | ~x2)" {
		t.Errorf("clause 0: %v", f.Clause(0))
	}
}

func TestParseDimacsMultiLineClause(t *testing.T) {
	src := "p cnf 4 1\n1 2\n3 4 0\n"
	f, err := ParseDimacsString(src)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumClauses() != 1 || len(f.Clause(0)) != 4 {
		t.Fatalf("clause spanning lines not joined: %v", f)
	}
}

func TestParseDimacsTrailingClauseWithoutZero(t *testing.T) {
	src := "p cnf 2 2\n1 0\n-1 2\n"
	f, err := ParseDimacsString(src)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumClauses() != 2 {
		t.Fatalf("trailing clause lost: %d", f.NumClauses())
	}
}

func TestParseDimacsCommentsEverywhere(t *testing.T) {
	src := "c head\np cnf 2 1\nc mid\n1 2 0\nc tail\n"
	f, err := ParseDimacsString(src)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumClauses() != 1 {
		t.Fatalf("clauses=%d", f.NumClauses())
	}
}

func TestParseDimacsErrors(t *testing.T) {
	cases := map[string]string{
		"bad header":        "p cnf x 1\n1 0\n",
		"bad literal":       "p cnf 1 1\nfoo 0\n",
		"var overflow":      "p cnf 1 1\n2 0\n",
		"clause mismatch":   "p cnf 1 2\n1 0\n",
		"malformed problem": "p dnf 1 1\n1 0\n",
		"negative counts":   "p cnf -1 1\n1 0\n",
	}
	for name, src := range cases {
		if _, err := ParseDimacsString(src); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestParseDimacsNoHeader(t *testing.T) {
	f, err := ParseDimacsString("1 -3 0\n2 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if f.NumVars != 3 || f.NumClauses() != 2 {
		t.Fatalf("headerless parse: vars=%d clauses=%d", f.NumVars, f.NumClauses())
	}
}

func TestDimacsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 50; iter++ {
		nv := rng.Intn(20) + 1
		f := New(nv)
		for i := 0; i < rng.Intn(30); i++ {
			var c Clause
			for j := 0; j <= rng.Intn(5); j++ {
				c = append(c, NewClause(rng.Intn(nv) + 1)[0].XorSign(rng.Intn(2) == 0))
			}
			f.AddClause(c)
		}
		text := DimacsString(f)
		g, err := ParseDimacsString(text)
		if err != nil {
			t.Fatalf("round trip parse: %v\n%s", err, text)
		}
		if g.NumVars != f.NumVars || g.NumClauses() != f.NumClauses() {
			t.Fatalf("round trip shape mismatch")
		}
		for i, c := range f.Clauses {
			if c.String() != g.Clause(i).String() {
				t.Fatalf("clause %d mismatch: %v vs %v", i, c, g.Clause(i))
			}
		}
	}
}

func TestWriteDimacsComments(t *testing.T) {
	f := New(1)
	f.Add(1)
	var b strings.Builder
	if err := WriteDimacs(&b, f, "hello", "world"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "c hello\nc world\np cnf 1 1\n") {
		t.Errorf("comments missing:\n%s", out)
	}
}

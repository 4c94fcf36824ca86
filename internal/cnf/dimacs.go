package cnf

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/lits"
)

// ParseDimacs reads a formula in DIMACS CNF format. It tolerates comment
// lines anywhere, missing or inconsistent "p cnf" headers (the declared
// counts are checked when present), and clauses spanning several lines.
func ParseDimacs(r io.Reader) (*Formula, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)

	f := New(0)
	declVars, declClauses := -1, -1
	var cur Clause
	lineNo := 0

	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		if strings.HasPrefix(line, "p") {
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[1] != "cnf" {
				return nil, fmt.Errorf("dimacs: line %d: malformed problem line %q", lineNo, line)
			}
			var err error
			declVars, err = strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("dimacs: line %d: bad variable count: %v", lineNo, err)
			}
			declClauses, err = strconv.Atoi(fields[3])
			if err != nil {
				return nil, fmt.Errorf("dimacs: line %d: bad clause count: %v", lineNo, err)
			}
			if declVars < 0 || declClauses < 0 {
				return nil, fmt.Errorf("dimacs: line %d: negative counts", lineNo)
			}
			if declVars > f.NumVars {
				f.NumVars = declVars
			}
			continue
		}
		for _, tok := range strings.Fields(line) {
			d, err := strconv.Atoi(tok)
			if err != nil {
				return nil, fmt.Errorf("dimacs: line %d: bad literal %q", lineNo, tok)
			}
			if len(f.Lits)+len(cur) > math.MaxInt32 {
				return nil, fmt.Errorf("dimacs: line %d: more than %d literals", lineNo, math.MaxInt32)
			}
			if d == 0 {
				f.AddClause(cur)
				cur = cur[:0]
				continue
			}
			cur = append(cur, lits.FromDimacs(d))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dimacs: read: %w", err)
	}
	if len(cur) > 0 {
		// A final clause without the terminating 0 is accepted, as many
		// tools emit it.
		f.AddClause(cur)
	}
	if declVars >= 0 && f.NumVars > declVars {
		return nil, fmt.Errorf("dimacs: formula uses variable %d but header declares %d", f.NumVars, declVars)
	}
	if declClauses >= 0 && f.NumClauses() != declClauses {
		return nil, fmt.Errorf("dimacs: header declares %d clauses but %d were read", declClauses, f.NumClauses())
	}
	return f, nil
}

// ParseDimacsString is a convenience wrapper over ParseDimacs.
func ParseDimacsString(s string) (*Formula, error) {
	return ParseDimacs(strings.NewReader(s))
}

// WriteDimacs serializes the formula in DIMACS CNF format, including the
// problem line and one clause per line.
func WriteDimacs(w io.Writer, f *Formula, comments ...string) error {
	bw := bufio.NewWriter(w)
	for _, c := range comments {
		if _, err := fmt.Fprintf(bw, "c %s\n", c); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(bw, "p cnf %d %d\n", f.NumVars, f.NumClauses()); err != nil {
		return err
	}
	for _, c := range f.Clauses {
		for _, l := range c {
			if _, err := fmt.Fprintf(bw, "%d ", l.Dimacs()); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(bw, "0"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DimacsString returns the DIMACS text of the formula.
func DimacsString(f *Formula) string {
	var b strings.Builder
	// strings.Builder writes never fail.
	_ = WriteDimacs(&b, f)
	return b.String()
}

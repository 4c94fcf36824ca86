// Command satbmc-dimacs is a standalone DIMACS CNF solver built on the
// repo's CDCL engine:
//
//	satbmc-dimacs [-core] [-stats] problem.cnf
//
// It prints "s SATISFIABLE" with a "v ..." model line, or "s UNSATISFIABLE"
// — optionally followed by the unsat core (the 1-based DIMACS indices of an
// unsatisfiable subset of the input clauses, extracted through the paper's
// conflict dependency graph and certified by RUP: proofcheck replays the
// refutation of the core the recorder kept, independently of the solver).
//
// Exit codes follow SAT-competition conventions: 10 satisfiable,
// 20 unsatisfiable, 0 unknown (budget), 2 usage or input errors.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/lits"
	"repro/internal/sat"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		printCore = flag.Bool("core", false, "on UNSAT, extract, certify, and print the unsat core")
		stats     = flag.Bool("stats", false, "print search statistics")
		conflicts = flag.Int64("conflicts", 0, "conflict budget (0 = unlimited)")
		timeout   = flag.Duration("timeout", 0, "wall-clock budget (0 = none)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: satbmc-dimacs [flags] problem.cnf")
		flag.PrintDefaults()
		return 2
	}

	file, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "satbmc-dimacs:", err)
		return 2
	}
	f, err := cnf.ParseDimacs(bufio.NewReader(file))
	file.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "satbmc-dimacs:", err)
		return 2
	}
	fmt.Printf("c parsed %d vars, %d clauses\n", f.NumVars, f.NumClauses())

	opts := sat.Options{MaxConflicts: *conflicts}
	if *timeout > 0 {
		opts.Deadline = time.Now().Add(*timeout)
	}
	var rec *core.Recorder
	if *printCore {
		rec = core.NewRecorderWith(f.NumClauses(), core.Complete)
		opts.Recorder = rec
	}

	res := sat.New(f, opts).Solve()
	if *stats {
		fmt.Printf("c decisions=%d implications=%d conflicts=%d restarts=%d learned=%d deleted=%d time=%s\n",
			res.Stats.Decisions, res.Stats.Implications, res.Stats.Conflicts,
			res.Stats.Restarts, res.Stats.Learned, res.Stats.Deleted,
			res.Stats.SolveTime.Round(time.Millisecond))
	}

	switch res.Status {
	case sat.Sat:
		if err := sat.VerifyModel(f, res.Model); err != nil {
			fmt.Fprintln(os.Stderr, "satbmc-dimacs: internal error:", err)
			return 2
		}
		fmt.Println("s SATISFIABLE")
		printModel(res.Model)
		return 10
	case sat.Unsat:
		fmt.Println("s UNSATISFIABLE")
		if *printCore {
			return emitCore(f, rec)
		}
		return 20
	default:
		fmt.Println("s UNKNOWN")
		return 0
	}
}

// printModel writes the satisfying assignment as a DIMACS "v" line.
func printModel(m lits.Assignment) {
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprint(w, "v")
	for v := lits.Var(1); int(v) < len(m); v++ {
		d := int(v)
		if m.Value(v) == lits.False {
			d = -d
		}
		fmt.Fprintf(w, " %d", d)
	}
	fmt.Fprintln(w, " 0")
}

// emitCore prints the unsat core clause indices (1-based, matching the
// order of the DIMACS input) once proofcheck has certified the refutation
// and that the core is exactly the clauses it rests on.
func emitCore(f *cnf.Formula, rec *core.Recorder) int {
	ids, err := rec.Certify(f, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "satbmc-dimacs: internal error:", err)
		return 2
	}
	fmt.Printf("c core: %d of %d clauses (certified by RUP)\n", len(ids), f.NumClauses())
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprint(w, "c core-clauses:")
	for _, id := range ids {
		fmt.Fprintf(w, " %d", id+1)
	}
	fmt.Fprintln(w)
	return 20
}

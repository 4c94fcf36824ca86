// Coreanalysis: watch the unsat core — the paper's "abstract model" of
// Fig. 3/4 — across BMC depths, including the moment it migrates from one
// part of the circuit to another on a mode-switch machine, which is
// exactly the situation where the refined ordering's estimate goes stale.
//
//	go run ./examples/coreanalysis
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/sat"
	"repro/internal/unroll"
)

func main() {
	// PhaseSwitch arms machine A's property component for the first 5
	// depths and machine B's window component afterwards; failDepth 0
	// keeps the property passing so every instance is UNSAT.
	c := bench.PhaseSwitch(6, 5, 0, 0, 0)
	u, err := unroll.New(c, 0)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("model %s: %d inputs, %d latches, %d AND gates\n\n",
		c.Name(), c.NumInputs(), c.NumLatches(), c.NumAnds())
	fmt.Printf("%-4s %8s %8s %8s %8s   %s\n",
		"k", "clauses", "coreCls", "coreVars", "nodes", "core latch groups")

	for k := 0; k <= 9; k++ {
		f := u.Formula(k)
		rec := core.NewRecorderWith(f.NumClauses(), core.Complete)
		res := sat.New(f, sat.Options{Recorder: rec}).Solve()
		if res.Status != sat.Unsat {
			log.Fatalf("depth %d: expected UNSAT, got %v", k, res.Status)
		}

		// Certify: the recorded refutation rests on exactly the core, so
		// the core alone is unsatisfiable (it is the over-approximate
		// abstraction sufficient to exclude length-k counter-examples).
		coreIDs, err := rec.Certify(f, nil)
		if err != nil {
			log.Fatalf("depth %d: %v", k, err)
		}
		coreVars := rec.CoreVarsOf(coreIDs, f, f.NumVars, nil)

		nodes := u.AbstractModel(coreVars)
		fmt.Printf("%-4d %8d %8d %8d %8d   %s\n",
			k, f.NumClauses(), len(coreIDs), len(coreVars), len(nodes),
			latchGroups(c, nodes))
	}

	fmt.Println("\nThrough depth 4 the abstract model is machine A (the xa/ya")
	fmt.Println("registers); from depth 5 on it migrates to machine B (xb/yb) —")
	fmt.Println("previous cores then mispredict the current one, the situation")
	fmt.Println("the paper's dynamic configuration guards against.")
}

// latchGroups summarizes which named latch groups of the circuit appear in
// the abstract model (the gates/latches whose clauses are in the core).
func latchGroups(c *circuit.Circuit, nodes []circuit.NodeID) string {
	groups := map[string]bool{}
	for _, n := range nodes {
		if c.Kind(n) != circuit.KindLatch {
			continue
		}
		name := c.NodeName(n)
		if i := strings.IndexAny(name, "[0123456789"); i > 0 {
			name = name[:i]
		}
		groups[strings.TrimRight(name, "_")] = true
	}
	out := make([]string, 0, len(groups))
	for g := range groups {
		out = append(out, g)
	}
	sort.Strings(out)
	return strings.Join(out, ",")
}

// Package unroll performs the time-frame expansion at the heart of BMC:
// it translates a sequential circuit and an invariant property into the
// CNF formula of the paper's Eq. 1,
//
//	I(V⁰) ∧ ⋀_{1≤i≤k} T(Vⁱ⁻¹, Wⁱ, Vⁱ) ∧ ¬P(Vᵏ),
//
// satisfiable exactly when a counter-example of length k exists.
//
// Variable numbering is frame-stable: node n in frame f maps to CNF
// variable 1 + f·stride + (n−1) regardless of the unrolling depth, so the
// length-k instance shares every variable of the length-(k−1) instance.
// This stability is what lets unsat-core scores learned at depth j transfer
// verbatim to depth j+1 — the identification of variables across instances
// that the paper's bmc_score relies on.
//
// The whole-instance formulas of that numbering — the BMC query's and the
// k-induction step query's — come from one encoder, Instance, which grows
// an instance in place from one depth to the next, so a depth loop over
// fresh solvers encodes each frame once; Formula is its one-shot form.
// Delta encodes the same two queries frame by frame for persistent
// solvers. Both go through one numbering (numbering.go), which places a
// persistent sequence's activation and simple-path variables between the
// frames, and through the same clause emitters.
package unroll

import (
	"fmt"
	"slices"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/lits"
)

// Unroller builds BMC instances of increasing depth for one circuit and
// one property.
type Unroller struct {
	numbering // the scratch numbering: frame f's nodes from 1 + f·stride
	propIdx   int
}

// New creates an unroller for property propIdx of circuit c. The circuit
// must validate (all latches driven, property present).
func New(c *circuit.Circuit, propIdx int) (*Unroller, error) {
	if err := c.Validate(true); err != nil {
		return nil, err
	}
	if propIdx < 0 || propIdx >= len(c.Properties()) {
		return nil, fmt.Errorf("unroll: property index %d out of range (%d properties)", propIdx, len(c.Properties()))
	}
	return &Unroller{numbering: numbering{c: c, stride: c.NumNodes() - 1}, propIdx: propIdx}, nil
}

// Circuit returns the underlying circuit.
func (u *Unroller) Circuit() *circuit.Circuit { return u.c }

// PropIdx returns the index of the property this unroller checks.
func (u *Unroller) PropIdx() int { return u.propIdx }

// Stride returns the number of CNF variables per time frame.
func (u *Unroller) Stride() int { return u.stride }

// NodeOf inverts VarFor: it returns the circuit node and frame of CNF
// variable v.
func (u *Unroller) NodeOf(v lits.Var) (circuit.NodeID, int) {
	idx := int(v) - 1
	return circuit.NodeID(idx%u.stride + 1), idx / u.stride
}

// Formula builds the length-k BMC instance (gen_cnf_formula in the paper's
// Fig. 5): a new Instance grown to k in one extension. The formula asserts
// that the property's bad signal holds in frame k, so SAT means a
// counter-example of length k exists.
func (u *Unroller) Formula(k int) *cnf.Formula {
	return u.Instance().Extend(k)
}

// Trace is a decoded counter-example: per-frame primary-input values and
// latch states, for frames 0..Depth.
type Trace struct {
	Depth  int
	Inputs [][]bool // [frame][input position]
	States [][]bool // [frame][latch position]
}

// Replay simulates the trace's inputs from the initial state and reports
// whether the property's bad signal is asserted in the final frame — the
// integrity check that a SAT answer is a genuine counter-example.
func (u *Unroller) Replay(tr *Trace) bool {
	bads := u.c.Simulate(tr.Inputs, u.propIdx)
	return len(bads) > 0 && bads[len(bads)-1]
}

// AbstractModel maps unsat-core variables back to distinct circuit nodes
// (the paper's Fig. 3: the sub-circuit "responsible" for unsatisfiability,
// collapsed across time frames). The result is sorted by node ID.
func (u *Unroller) AbstractModel(coreVars []lits.Var) []circuit.NodeID {
	seen := make(map[circuit.NodeID]bool)
	var out []circuit.NodeID
	for _, v := range coreVars {
		n, _ := u.NodeOf(v)
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	slices.Sort(out)
	return out
}

package unroll

import (
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/lits"
)

// Instance is one query's whole-instance formula under the unroller's
// scratch numbering, grown in place from depth to depth: Extend(k) makes it
// the length-k instance out of whatever shorter instance it holds, encoding
// only the frames that are new. It is the one encoder of that numbering —
// Formula is an Instance extended once.
//
// The formula is flat (cnf.Formula): one literal array and one end offset
// per clause. Its clauses keep the order a one-shot build gives them,
//
//	[initial values] [gates of frames 0..n] [transitions 0..n-1] [tail]
//
// (the step query has no initial values), so a clause's index — its proof
// ID, its place in every watch list, the level-0 trail's order — does not
// depend on how the instance got to its depth. The gates and transitions
// are the body: frame-stable, encoded once and kept. Growing by a frame
// opens a gap for its gate clauses after the last frame's, which moves the
// transitions' literals and end offsets up by that many places, writes the
// gates into it, and appends the frame's transitions. The tail is what a
// depth asserts about its last frame and nothing deeper may keep — the BMC
// property unit; the step query's good and bad units and its simple-path
// constraint, whose auxiliary variables are numbered past the depth's
// frames — and is written anew, over the last depth's, at every depth.
//
// Every clause is emitted normalised (numbering.go's emitters), and so is
// the tail below.
//
// Extend rewrites the arrays of the formula it returned before: a formula,
// and any cnf.Clause taken from it, is valid until the next Extend.
type Instance struct {
	u    *Unroller
	step bool // the k-induction step query, not the BMC one
	f    cnf.Formula
	// roomClauses and roomLits are what the next replacement of the
	// formula's end offsets and literals makes room for (Grow); without a
	// hint an array is replaced by one of exactly the length it needs.
	roomClauses, roomLits int

	frames    int // time frames whose gates the body holds
	gatesEnd  int // clauses [0, gatesEnd): initial values and gates
	bodyEnd   int // clauses [gatesEnd, bodyEnd): transitions; the tail follows
	gatesLits int // literals of the clauses below gatesEnd
	bodyLits  int // literals of the clauses below bodyEnd
}

// Instance returns an empty growing instance of the BMC query: Extend(k)
// makes it Formula(k).
func (u *Unroller) Instance() *Instance { return &Instance{u: u} }

// StepInstance returns an empty growing instance of the k-induction step
// query: Extend(k) makes it the depth-k step formula — frames 0..k+1
// connected by the transition relation with no initial-state constraint,
// the property's bad signal false in frames 0..k and asserted in frame k+1,
// and pairwise state disequality between frames 0..k (the simple-path
// constraint that makes k-induction complete on finite systems).
func (u *Unroller) StepInstance() *Instance { return &Instance{u: u, step: true} }

// Size returns the variable, clause and literal counts of Extend(k)'s
// formula without building it: the closed form of the encoding below, which
// must follow it exactly.
func (in *Instance) Size(k int) (vars, clauses, literals int) {
	frames := in.framesAt(k)
	clauses, literals = in.u.body(frames, !in.step)
	tailClauses, tailLits, aux := in.tail(k)
	return in.u.NumVars(frames-1) + aux, clauses + tailClauses, literals + tailLits
}

// Grow sizes the formula's arrays ahead for depth k, like slices.Grow, but
// only records the size: the next Extend that has to replace an array makes
// it room for Size(k)'s clauses or literals, and an instance never extended
// past its arrays allocates nothing for them.
func (in *Instance) Grow(k int) { _, in.roomClauses, in.roomLits = in.Size(k) }

// framesAt returns the number of time frames of the depth-k instance.
func (in *Instance) framesAt(k int) int {
	if in.step {
		return k + 2
	}
	return k + 1
}

// tail returns the clause and literal counts of the depth-k tail, and the
// auxiliary variables it numbers past the frames.
func (in *Instance) tail(k int) (clauses, literals, aux int) {
	bad := in.u.c.Properties()[in.u.propIdx].Bad
	constBad := bad == circuit.True || bad == circuit.False
	switch {
	case in.step && !constBad:
		latches := in.u.c.NumLatches()
		pairs := (k + 1) * k / 2 // frame pairs of the simple path
		return k + 2 + pairs*(2*latches+1), k + 2 + pairs*7*latches, pairs * latches
	case in.step || bad == circuit.False:
		return 1, 0, 0 // the empty clause
	case bad == circuit.True:
		return 0, 0, 0
	}
	return 1, 1, 0
}

// Frames returns the number of time frames the instance spans: k+1 for
// the BMC query at depth k, k+2 for the step query.
func (in *Instance) Frames() int { return in.frames }

// VarInfo classifies variable v of the instance: its time frame, and
// whether it is an auxiliary of the encoding — the step query's
// disequality helpers, numbered past the frames.
func (in *Instance) VarInfo(v lits.Var) (frame int, aux bool) {
	if int(v) > in.u.NumVars(in.frames-1) {
		return 0, true
	}
	return in.u.VarInfo(v)
}

// openGap returns s lengthened by n, with what followed index at moved up
// by n places to leave s[at:at+n] for the caller to write. Where s has no
// room for need elements it moves to a new array with room for max(need,
// room).
func openGap[E any](s []E, at, n, need, room int) []E {
	if cap(s) < need {
		t := make([]E, len(s)+n, max(need, room))
		copy(t, s[:at])
		copy(t[at+n:], s[at:])
		return t
	}
	s = s[:len(s)+n]
	copy(s[at+n:], s[at:])
	return s
}

// Extend grows the instance to depth k, which must not be below the depth
// it holds, and returns its formula — the same value every time, valid
// until the next Extend.
func (in *Instance) Extend(k int) *cnf.Formula {
	frames := in.framesAt(k)
	if k < 0 || frames < in.frames {
		panic(fmt.Sprintf("unroll: cannot extend an instance of %d frames to depth %d", in.frames, k))
	}
	u, c := in.u, in.u.c
	bad := c.Properties()[u.propIdx].Bad
	constBad := bad == circuit.True || bad == circuit.False

	// What the body gains: the initial values on the first extension, the
	// gates of the new frames, the transitions into them.
	units, steps := 0, frames-in.frames
	if in.frames == 0 {
		steps = frames - 1
		if !in.step {
			units = c.NumLatches()
		}
	}
	newGates := units + (frames-in.frames)*3*c.NumAnds()
	newGateLits := units + (frames-in.frames)*7*c.NumAnds()
	_, needClauses, needLits := in.Size(k)
	if needLits > math.MaxInt32 {
		panic(fmt.Sprintf("unroll: depth %d needs %d literals, past a formula's end offsets", k, needLits))
	}

	// Drop the tail and open the gap for the new gates between the last
	// frame's and the transitions, whose ends move up by what it holds. An
	// array replaced is let go of as soon as it is copied.
	f := &in.f
	f.Lits = openGap(f.Lits[:in.bodyLits], in.gatesLits, newGateLits, needLits, in.roomLits)
	f.Ends = openGap(f.Ends[:in.bodyEnd], in.gatesEnd, newGates, needClauses, in.roomClauses)
	for i := in.gatesEnd + newGates; i < len(f.Ends); i++ {
		f.Ends[i] += int32(newGateLits)
	}

	// Appending to what precedes the gap writes into it.
	gap := cnf.Formula{Lits: f.Lits[:in.gatesLits], Ends: f.Ends[:in.gatesEnd]}
	if units > 0 {
		u.initial(&gap)
	}
	for frame := in.frames; frame < frames; frame++ {
		u.gates(&gap, frame)
	}
	in.gatesEnd, in.gatesLits = len(gap.Ends), len(gap.Lits)
	for frame := frames - 1 - steps; frame < frames-1; frame++ {
		u.transitions(f, frame)
	}
	in.frames, in.bodyEnd, in.bodyLits = frames, len(f.Ends), len(f.Lits)

	// The tail.
	nVars := u.NumVars(frames - 1)
	switch {
	case in.step && !constBad:
		// P holds in frames 0..k and fails in frame k+1.
		for frame := 0; frame <= k; frame++ {
			f.AddUnit(u.LitFor(bad, frame).Neg())
		}
		f.AddUnit(u.LitFor(bad, k+1))
		// Simple path: the states of frames 0..k are pairwise distinct,
		// each pair's auxiliaries numbered past the frames in turn.
		for i := 0; i <= k; i++ {
			for j := i + 1; j <= k; j++ {
				u.distinct(f, i, j, lits.Var(nVars+1))
				nVars += c.NumLatches()
			}
		}
	case in.step || bad == circuit.False:
		// A constant property needs no reasoning: no frame is good when
		// it is constantly violated, none is bad when it never is, and
		// either way the instance is trivially unsatisfiable.
		f.AddClause(nil)
	case bad == circuit.True:
		// Constantly violated: every execution is a witness.
	default:
		// ¬P(Vᵏ): the bad signal asserted in the final frame.
		f.AddUnit(u.LitFor(bad, k))
	}
	f.NumVars = nVars
	return f
}

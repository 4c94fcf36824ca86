// Package core implements the paper's contribution: unsat-core extraction
// through a simplified Conflict Dependency Graph (CDG) and the successive
// refinement of a SAT decision ordering for bounded model checking.
//
// The division of labour with internal/sat mirrors the paper's division
// between Chaff and the BMC layer built on it:
//
//   - Recorder subscribes to the solver's proof events and maintains the
//     CDG of §3.1 — per learned clause, only a pseudo ID and the IDs of its
//     antecedents are kept, so the solver remains free to delete learned
//     clauses and the memory overhead stays small. Fresh and persistent
//     solvers record into the same type, which optionally keeps clause
//     literals too (Payload).
//   - After an UNSAT result, Core/CoreVars traverse the CDG backward from
//     the final conflict and return the subset of *original* clauses (and
//     the variables occurring in them) responsible for unsatisfiability.
//   - ScoreBoard accumulates the paper's bmc_score across BMC instances
//     (§3.2): bmc_score(x) = Σ_j in_unsat(x, j) · j.
//   - Strategy turns a ScoreBoard into solver options (§3.3): the static
//     configuration uses bmc_score as the primary decision key with
//     cha_score as tiebreaker for the whole solve; the dynamic one
//     additionally reverts to pure VSIDS once the decision count exceeds
//     #original_literals / 64.
package core

import (
	"fmt"

	"repro/internal/cnf"
	"repro/internal/lits"
	"repro/internal/sat"
)

// Payload says which clause literals a Recorder keeps beside the
// antecedent IDs.
type Payload int

// Recorder payloads.
const (
	// IDsOnly is the paper's simplified CDG: IDs, never literals.
	IDsOnly Payload = iota
	// WithLeaves also keeps the literals of the leaves registered through
	// AddLeaf: a persistent solver takes its clauses frame by frame, so no
	// formula indexed by clause ID exists to resolve a core against.
	WithLeaves
	// Complete also keeps every learned clause's literals — the complete
	// CDG of the paper's §3.1, whose recorded proof Check can replay.
	Complete
)

// chunkLen is the number of 4-byte values per storage chunk (64 KB).
const (
	chunkShift = 14
	chunkLen   = 1 << chunkShift
)

// chunked is an append-only sequence of 4-byte values held in fixed-size
// chunks. Growing it adds a chunk and copies nothing, so a recorder never
// holds two copies of its graph: one append-grown slice keeps the old and
// the new backing array alive side by side while it grows, and at 12 MB of
// antecedent IDs in a 20 MB heap that alone is far past a 10 % higher peak.
type chunked[T ~int32] struct {
	chunks [][]T // every chunk but the last holds exactly chunkLen values
	n      int
}

func (c *chunked[T]) append(xs []T) {
	for len(xs) > 0 {
		if k := len(c.chunks); k == 0 || len(c.chunks[k-1]) == chunkLen {
			// The first chunk grows by append, so a small graph stays
			// small; every later one is allocated whole.
			var next []T
			if k > 0 {
				next = make([]T, 0, chunkLen)
			}
			c.chunks = append(c.chunks, next)
		}
		last := &c.chunks[len(c.chunks)-1]
		take := min(len(xs), chunkLen-len(*last))
		*last = append(*last, xs[:take]...)
		xs = xs[take:]
		c.n += take
	}
}

func (c *chunked[T]) at(i int) T { return c.chunks[i>>chunkShift][i&(chunkLen-1)] }

// appendTo appends the values in [lo, hi) to dst.
func (c *chunked[T]) appendTo(dst []T, lo, hi int) []T {
	for lo < hi {
		chunk := c.chunks[lo>>chunkShift]
		from := lo & (chunkLen - 1)
		to := min(len(chunk), from+hi-lo)
		dst = append(dst, chunk[from:to]...)
		lo += to - from
	}
	return dst
}

func (c *chunked[T]) bytes() int64 {
	b := int64(cap(c.chunks)) * 24
	for _, chunk := range c.chunks {
		b += int64(cap(chunk)) * 4
	}
	return b
}

// Recorder is the Conflict Dependency Graph. It implements
// sat.ProofRecorder.
//
// The layout is indexed by clause ID: a solver numbers originals, learned
// clauses and bus imports from one dense counter and reports learned
// clauses in that order, so antEnd[i] is where clause base+i's antecedents
// end in ants (they start where the previous clause's end). An ID that
// never had antecedents recorded is a leaf — an original clause or a bus
// import. A fresh solver's leaves are the formula's clauses 0..base-1 and
// get no table entry; a persistent solver's interleave with the learned
// clauses and get an empty one. litEnd and lits hold the Payload's clause
// literals the same way.
//
// Records are never removed, even when the solver deletes the clause —
// that is what makes core extraction compatible with database reduction.
type Recorder struct {
	payload Payload
	base    sat.ClauseID
	antEnd  []uint32
	ants    chunked[sat.ClauseID]
	litEnd  []uint32 // nil when payload is IDsOnly
	lits    chunked[lits.Lit]
	learned int

	final  []sat.ClauseID
	proved bool

	// Core's scratch, reused across extractions: one bit per clause ID and
	// the leaves found, highest ID first.
	seen   []uint64
	leaves []sat.ClauseID
}

// NewRecorder creates a simplified-CDG recorder for one solve of a formula
// with the given number of original clauses (clause IDs 0..n-1 are
// originals, as sat.New numbers them).
func NewRecorder(numOriginals int) *Recorder { return NewRecorderWith(numOriginals, IDsOnly) }

// NewRecorderWith is NewRecorder with a literal payload. A persistent
// solver starts from an empty formula: numOriginals is 0 and its clauses
// arrive through AddLeaf.
func NewRecorderWith(numOriginals int, payload Payload) *Recorder {
	return &Recorder{base: sat.ClauseID(numOriginals), payload: payload}
}

// advance moves the table up to id: the IDs skipped are leaves nobody
// registered. Clause IDs only ever grow.
func (r *Recorder) advance(id sat.ClauseID) {
	i := int(id - r.base)
	if i < len(r.antEnd) {
		panic(fmt.Sprintf("core: clause ID %d out of order (expected %d or above)", id, int(r.base)+len(r.antEnd)))
	}
	for len(r.antEnd) < i {
		r.closeEntry()
	}
}

// closeEntry ends the next clause's runs where the stores end now.
func (r *Recorder) closeEntry() {
	r.antEnd = append(r.antEnd, uint32(r.ants.n))
	if r.payload != IDsOnly {
		r.litEnd = append(r.litEnd, uint32(r.lits.n))
	}
}

// RecordLearned implements sat.ProofRecorder. The slices are copied; the
// literals are kept only by a Complete recorder.
func (r *Recorder) RecordLearned(id sat.ClauseID, literals []lits.Lit, antecedents []sat.ClauseID) {
	if len(antecedents) == 0 {
		// It would read back as a leaf, and Check would take it on trust.
		panic(fmt.Sprintf("core: learned clause %d has no antecedents", id))
	}
	r.advance(id)
	r.ants.append(antecedents)
	if r.payload == Complete {
		r.lits.append(literals)
	}
	r.closeEntry()
	r.learned++
}

// AddLeaf registers the literals of a clause the solver was given rather
// than derived — an original added to a live solver, or a bus import —
// under the ID the solver returned for it.
func (r *Recorder) AddLeaf(id sat.ClauseID, literals []lits.Lit) {
	r.advance(id)
	if r.payload != IDsOnly {
		r.lits.append(literals)
	}
	r.closeEntry()
}

// RecordFinal implements sat.ProofRecorder. A persistent solver calls it
// once per unsatisfiable SolveAssuming, replacing the previous conflict.
func (r *Recorder) RecordFinal(antecedents []sat.ClauseID) {
	r.final = append(r.final[:0], antecedents...)
	r.proved = true
}

// HasProof reports whether a final conflict is currently recorded.
func (r *Recorder) HasProof() bool { return r.proved }

// ResetFinal clears the final-conflict marker between the depths of a
// persistent solver while keeping every dependency record: learned
// clauses from earlier frames legitimately appear in later proofs.
func (r *Recorder) ResetFinal() { r.proved = false }

// NumLearnedRecorded returns the number of learned-clause records.
func (r *Recorder) NumLearnedRecorded() int { return r.learned }

// ApproxBytes returns the bytes the recorder holds: the capacity of its
// chunks, tables and traversal scratch. The paper's §3.1 claims this is
// negligible beside the clause database; the overhead experiment checks.
func (r *Recorder) ApproxBytes() int64 {
	return r.ants.bytes() + r.lits.bytes() +
		4*int64(cap(r.antEnd)+cap(r.litEnd)+cap(r.final)+cap(r.leaves)) +
		8*int64(cap(r.seen))
}

// span returns where id's run lies in the store whose end table is given;
// IDs the table does not cover have none.
func (r *Recorder) span(end []uint32, id sat.ClauseID) (lo, hi int) {
	i := int(id - r.base)
	if i < 0 || i >= len(end) {
		return 0, 0
	}
	if i > 0 {
		lo = int(end[i-1])
	}
	return lo, int(end[i])
}

// Core traverses the CDG backward from the final conflict and returns the
// IDs of the leaves it reaches — the unsat core — in ascending order. It
// returns nil if no final conflict is recorded.
//
// A clause is derived from clauses that already exist, so every antecedent
// ID is below its dependant's: one descending sweep over the marked IDs
// visits each clause after everything that depends on it, with no stack.
func (r *Recorder) Core() []int {
	if !r.proved {
		return nil
	}
	top := int(r.base) + len(r.antEnd)
	for _, a := range r.final {
		top = max(top, int(a)+1)
	}
	if words := (top + 63) / 64; cap(r.seen) < words {
		r.seen = make([]uint64, words)
	} else {
		r.seen = r.seen[:words]
		clear(r.seen)
	}
	for _, a := range r.final {
		r.seen[a>>6] |= 1 << (a & 63)
	}
	r.leaves = r.leaves[:0]
	for id := top - 1; id >= 0; id-- {
		word := r.seen[id>>6]
		if word == 0 {
			id &^= 63 // nothing marked in this word: on to the one below
			continue
		}
		if word&(1<<(id&63)) == 0 {
			continue
		}
		lo, hi := r.span(r.antEnd, sat.ClauseID(id))
		if lo == hi {
			r.leaves = append(r.leaves, sat.ClauseID(id))
			continue
		}
		for i := lo; i < hi; i++ {
			a := r.ants.at(i)
			r.seen[a>>6] |= 1 << (a & 63)
		}
	}
	out := make([]int, len(r.leaves))
	for i, id := range r.leaves {
		out[len(out)-1-i] = int(id)
	}
	return out
}

// clause resolves id to its literals: the payload's when the recorder
// keeps them, the formula's otherwise (originals may be nil). buf is
// scratch the result may alias.
func (r *Recorder) clause(id sat.ClauseID, originals *cnf.Formula, buf []lits.Lit) ([]lits.Lit, bool) {
	if id >= r.base && r.payload != IDsOnly {
		lo, hi := r.span(r.litEnd, id)
		return r.lits.appendTo(buf[:0], lo, hi), true
	}
	if originals == nil || id < 0 || int(id) >= len(originals.Clauses) {
		return nil, false
	}
	return originals.Clauses[id], true
}

// Vars is the one walk from core clauses to the variables the score board
// ranks: the distinct variables up to nVars in the n clauses clause(0..n-1)
// returns (each used before the next call), minus those aux reports as
// auxiliaries of the encoding — guards and disequality helpers are
// plumbing, and bmc_score ranks circuit variables only. A nil aux keeps
// every variable (scratch numbering has no auxiliaries). Sorted ascending.
func Vars(n int, clause func(i int) []lits.Lit, nVars int, aux func(lits.Var) bool) []lits.Var {
	seen := make([]bool, nVars+1)
	for i := 0; i < n; i++ {
		for _, l := range clause(i) {
			if v := l.Var(); int(v) <= nVars {
				seen[v] = true
			}
		}
	}
	var out []lits.Var
	for v := lits.Var(1); int(v) <= nVars; v++ {
		if seen[v] && (aux == nil || !aux(v)) {
			out = append(out, v)
		}
	}
	return out
}

// CoreVarsOf maps core clause IDs (as Core returns them) to their
// variables through Vars. Leaves the recorder holds no literals for are
// looked up in originals, the formula the solve ran on.
func (r *Recorder) CoreVarsOf(ids []int, originals *cnf.Formula, nVars int, aux func(lits.Var) bool) []lits.Var {
	var buf []lits.Lit
	return Vars(len(ids), func(i int) []lits.Lit {
		buf, _ = r.clause(sat.ClauseID(ids[i]), originals, buf)
		return buf
	}, nVars, aux)
}

// CoreVars returns the sorted set of variables occurring in the unsat-core
// clauses of formula f (which must be the formula the solve ran on).
func (r *Recorder) CoreVars(f *cnf.Formula) []lits.Var {
	return r.CoreVarsOf(r.Core(), f, f.NumVars, nil)
}

// IncrementalRecorder is NewRecorder(0) under the name and Core signature
// benchmark/driver.go was written against. Kept for benchmark/driver.go;
// the benchmark PR deletes it.
type IncrementalRecorder struct{ Recorder }

// NewIncrementalRecorder: kept for benchmark/driver.go; the benchmark PR
// deletes it.
func NewIncrementalRecorder() *IncrementalRecorder { return new(IncrementalRecorder) }

// Core is Recorder.Core as []sat.ClauseID. Kept for benchmark/driver.go;
// the benchmark PR deletes it.
func (r *IncrementalRecorder) Core() []sat.ClauseID {
	ids := r.Recorder.Core()
	out := make([]sat.ClauseID, len(ids))
	for i, id := range ids {
		out[i] = sat.ClauseID(id)
	}
	return out
}

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

// chunked is a sequence of 4-byte values held in fixed-size chunks. Growing
// it adds a chunk and copies nothing, so a recorder never holds two copies
// of its graph: one append-grown slice keeps the old and the new backing
// array alive side by side while it grows, and with the antecedent IDs the
// largest thing a scratch check holds, that alone would lift its peak heap
// past a 10 % bound. Truncating it hands the chunks it no longer needs to a
// spare list, which later growth draws from before it allocates.
type chunked[T ~int32] struct {
	chunks [][]T // every chunk but the last holds exactly chunkLen values
	spare  [][]T // emptied chunks, taken last in first out
	n      int
}

func (c *chunked[T]) append(xs []T) {
	for len(xs) > 0 {
		if k := len(c.chunks); k == 0 || len(c.chunks[k-1]) == chunkLen {
			// A spare comes first. Otherwise the first chunk grows by
			// append, so a small graph stays small, and every later one is
			// allocated whole.
			var next []T
			if s := len(c.spare); s > 0 {
				next, c.spare[s-1] = c.spare[s-1], nil
				c.spare = c.spare[:s-1]
			} else if k > 0 {
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

// moveDown copies the n values at from to to, which lies at or below from;
// the two ranges may overlap.
func (c *chunked[T]) moveDown(to, from, n int) {
	for n > 0 {
		src := c.chunks[from>>chunkShift][from&(chunkLen-1):]
		dst := c.chunks[to>>chunkShift][to&(chunkLen-1):]
		// Within one chunk copy is a memmove; across two the ranges are
		// disjoint. Either way no value is read after it is overwritten.
		m := copy(dst[:min(n, len(dst))], src[:min(n, len(src))])
		to, from, n = to+m, from+m, n-m
	}
}

// truncate keeps the first n values and moves the chunks past them to the
// spare list — all but a first chunk that append has not yet grown to
// full size, which is small and goes to the collector.
func (c *chunked[T]) truncate(n int) {
	keep := (n + chunkLen - 1) >> chunkShift
	for k := len(c.chunks) - 1; k >= keep; k-- {
		if cap(c.chunks[k]) >= chunkLen {
			c.spare = append(c.spare, c.chunks[k][:0])
		}
		c.chunks[k] = nil
	}
	c.chunks = c.chunks[:keep]
	if keep > 0 {
		c.chunks[keep-1] = c.chunks[keep-1][:n-(keep-1)<<chunkShift]
	}
	c.n = n
}

// bytes is what the store holds, spare chunks included.
func (c *chunked[T]) bytes() int64 {
	b := int64(cap(c.chunks)+cap(c.spare)) * 24
	for _, chunk := range c.chunks {
		b += int64(cap(chunk)) * 4
	}
	for _, chunk := range c.spare {
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
// A record lives while a live clause's derivation can reach it. Deleting a
// clause does not delete its record — a live clause derived from it still
// leads there, which is what makes core extraction compatible with
// database reduction — but when the solver compacts its clause store it
// names its live learned clauses (Forget), and the records no live clause
// and no recorded final conflict can reach are dropped: their antecedent
// runs leave the store and their antEnd entries are marked forgotten. A
// final conflict only ever names live clauses, so no later traversal can
// reach a forgotten record; one that does panics.
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

	// The sweep's scratch, reused across extractions and collections: one
	// bit per clause ID and the leaves Core found, highest ID first.
	seen   []uint64
	leaves []sat.ClauseID
}

// forgottenBit marks an antEnd entry whose record Forget dropped; the rest
// of the entry is still where its (now empty) run ends.
const forgottenBit = 1 << 31

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

// Reload makes r the recorder NewRecorderWith(numOriginals, payload) builds
// with r's payload, out of the storage it already has: every chunk becomes
// a spare, and the tables and the sweep's scratch keep their arrays. No
// record and no final conflict survive. A scratch depth loop reloads one
// recorder per solver at every depth, as it loads the solver
// (sat.Solver.Load), so each depth grows only what the last left short.
func (r *Recorder) Reload(numOriginals int) {
	r.base = sat.ClauseID(numOriginals)
	r.antEnd, r.litEnd = r.antEnd[:0], r.litEnd[:0]
	r.ants.truncate(0)
	r.lits.truncate(0)
	r.learned = 0
	r.final, r.proved = r.final[:0], false
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
	if uint(r.ants.n) >= forgottenBit {
		panic("core: more than 2^31 antecedent IDs on record")
	}
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

// NumLearnedRecorded returns the number of learned-clause records made,
// forgotten ones included.
func (r *Recorder) NumLearnedRecorded() int { return r.learned }

// ApproxBytes returns the bytes the recorder holds: the capacity of its
// chunks (spare ones included), tables and traversal scratch. The paper's
// §3.1 claims this is negligible beside the clause database; the overhead
// experiment checks.
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
		lo = int(end[i-1] &^ forgottenBit)
	}
	return lo, int(end[i] &^ forgottenBit)
}

// Core traverses the CDG backward from the final conflict and returns the
// IDs of the leaves it reaches — the unsat core — in ascending order. It
// returns nil if no final conflict is recorded.
func (r *Recorder) Core() []int {
	if !r.proved {
		return nil
	}
	top := r.above(r.final)
	r.clearSeen(top)
	r.mark(r.final)
	r.sweep(top, 0, true)
	out := make([]int, len(r.leaves))
	for i, id := range r.leaves {
		out[len(out)-1-i] = int(id)
	}
	return out
}

// Forget implements sat.ProofRecorder: live names every learned clause the
// solver still holds, and the records neither they nor a recorded final
// conflict can reach are dropped. The reachable antecedent runs slide down
// over the dropped ones inside the chunks they occupy, and the chunks the
// store no longer needs become spares. A Complete recorder keeps every
// record, because Check replays them all.
func (r *Recorder) Forget(live []sat.ClauseID) {
	if r.payload == Complete {
		return
	}
	top := r.above(live)
	if r.proved {
		top = max(top, r.above(r.final))
	}
	r.clearSeen(top)
	r.mark(live)
	if r.proved {
		r.mark(r.final)
	}
	// Below base are only leaves, which hold no record.
	r.sweep(top, int(r.base), false)

	to, lo := 0, 0
	for i, end := range r.antEnd {
		hi := int(end &^ forgottenBit)
		id := int(r.base) + i
		switch {
		case lo == hi:
			// A leaf, or a record forgotten before: its run stays empty.
			r.antEnd[i] = uint32(to) | end&forgottenBit
		case r.seen[id>>6]&(1<<(id&63)) != 0:
			if to != lo {
				r.ants.moveDown(to, lo, hi-lo)
			}
			to += hi - lo
			r.antEnd[i] = uint32(to)
		default:
			r.antEnd[i] = uint32(to) | forgottenBit
		}
		lo = hi
	}
	r.ants.truncate(to)
}

// above returns the lowest ID above every record and every ID in ids.
func (r *Recorder) above(ids []sat.ClauseID) int {
	top := int(r.base) + len(r.antEnd)
	for _, id := range ids {
		top = max(top, int(id)+1)
	}
	return top
}

// clearSeen makes the sweep's bitset cover IDs below top, every bit clear.
// A new one gets head-room: the graph grows between sweeps, and a bitset
// made to measure would be made again at nearly every one.
func (r *Recorder) clearSeen(top int) {
	words := (top + 63) / 64
	if cap(r.seen) < words {
		r.seen = nil
		r.seen = make([]uint64, words, words+words/2)
		return
	}
	r.seen = r.seen[:words]
	clear(r.seen)
}

// mark sets the bits of ids.
func (r *Recorder) mark(ids []sat.ClauseID) {
	for _, a := range ids {
		r.seen[a>>6] |= 1 << (a & 63)
	}
}

// sweep visits the marked IDs in [bottom, top) from the highest down and
// marks the antecedents of each; with collect, the marked IDs that have
// none — the leaves — are gathered in r.leaves, highest first. A clause is
// derived from clauses that already exist, so every antecedent ID is below
// its dependant's: one descending sweep visits each clause after everything
// that depends on it, with no stack. Reaching a forgotten record means a
// live clause or a final conflict was not named to Forget, and panics.
func (r *Recorder) sweep(top, bottom int, collect bool) {
	r.leaves = r.leaves[:0]
	for id := top - 1; id >= bottom; id-- {
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
			if i := id - int(r.base); i >= 0 && i < len(r.antEnd) && r.antEnd[i]&forgottenBit != 0 {
				panic(fmt.Sprintf("core: the CDG reached clause %d, whose record was forgotten", id))
			}
			if collect {
				r.leaves = append(r.leaves, sat.ClauseID(id))
			}
			continue
		}
		for i := lo; i < hi; i++ {
			a := r.ants.at(i)
			r.seen[a>>6] |= 1 << (a & 63)
		}
	}
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

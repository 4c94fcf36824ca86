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
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"unsafe"

	"repro/internal/cnf"
	"repro/internal/lits"
	"repro/internal/proofcheck"
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
	// CDG of the paper's §3.1, whose proof proofcheck can replay (Proof).
	Complete
)

// A storage chunk is 64 KB: chunkLen bytes of coded runs, or chunkLen/4
// entries of an end table.
const (
	chunkShift = 16
	chunkLen   = 1 << chunkShift
)

// chunked is a sequence held in fixed-size chunks. Growing it adds a chunk
// and copies nothing, so a recorder never holds two copies of its graph:
// one append-grown slice keeps the old and the new backing array alive side
// by side while it grows, and allocates about five times its final size on
// the way. Truncating it hands the chunks it no longer needs to a spare
// list, which later growth draws from before it allocates.
//
// A chunked[byte] holds coded runs (appendRun): a value may begin in one
// chunk and end in the next, and so may a run. A chunked[uint32] is an end
// table, one entry a clause ID.
type chunked[T byte | uint32] struct {
	chunks [][]T // every chunk but the last is full
	spare  [][]T // emptied chunks, taken last in first out
	n      int
}

// shift is the log of the elements a chunk holds.
func (c *chunked[T]) shift() int {
	var x T
	return chunkShift - bits.TrailingZeros(uint(unsafe.Sizeof(x)))
}

// tail returns the chunk appends go to, opening a new one when the last is
// full.
func (c *chunked[T]) tail() *[]T {
	if k := len(c.chunks); k == 0 || len(c.chunks[k-1]) == 1<<c.shift() {
		c.open()
	}
	return &c.chunks[len(c.chunks)-1]
}

// open adds a chunk. A spare comes first. Otherwise the first chunk starts
// empty and doubles as it fills (put), so a small graph stays small, and
// every later one is allocated whole.
func (c *chunked[T]) open() {
	var next []T
	if s := len(c.spare); s > 0 {
		next, c.spare[s-1] = c.spare[s-1], nil
		c.spare = c.spare[:s-1]
	} else if len(c.chunks) > 0 {
		next = make([]T, 0, 1<<c.shift())
	}
	c.chunks = append(c.chunks, next)
}

// put appends one element. Only a first chunk is ever full short of a
// chunk's length; it doubles, which allocates half what append's growth
// rule would on the way to a whole chunk.
func (c *chunked[T]) put(x T) {
	last := c.tail()
	if n := len(*last); n == cap(*last) {
		grown := make([]T, n, min(max(2*n, 64), 1<<c.shift()))
		copy(grown, *last)
		*last = grown
	}
	*last = append(*last, x)
	c.n++
}

// at returns element i.
func (c *chunked[T]) at(i int) T {
	s := c.shift()
	return c.chunks[i>>s][i&(1<<s-1)]
}

// maxVarint is the longest coding of one value: the zigzag delta between
// two int32 values takes 33 bits, which LEB128 spreads over five bytes.
const maxVarint = 5

// zigzag maps a signed delta to an unsigned one whose size follows the
// delta's magnitude: 0, -1, 1, -2, ... become 0, 1, 2, 3, ...
func zigzag(d int64) uint64 { return uint64(d<<1 ^ d>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// spread lays u's seven-bit groups out one to a byte, low first, and sets
// the top bit of every byte but the last of the k its coding takes: the
// LEB128 coding of u, in the low k bytes of w. u must fit in 35 bits. It
// does not branch on the length, which a mix of one-, two- and three-byte
// deltas would mispredict at most values.
func spread(u uint64) (w uint64, k int) {
	l := bits.Len64(u)
	// Open a zero bit above each group, the lowest first.
	w = u + u&^0x7f
	w += w &^ 0x7fff
	w += w &^ 0x7fffff
	w += w &^ 0x7fffffff
	return w | lebCont[l], int(lebLen[l])
}

// gather inverts spread on the little-endian word read at a value's first
// byte: the value, and the k bytes its coding took. The bytes past them
// are ignored.
func gather(w uint64) (u uint64, k int) {
	k = bits.TrailingZeros64(^w&0x8080808080808080|1<<63)>>3 + 1
	return squeeze(w & lebData[k]), k
}

// squeeze closes the gaps spread opened, the highest first: u is a coding
// with its continuation bits cleared.
func squeeze(u uint64) uint64 {
	u -= u &^ 0x7fffffff >> 1
	u -= u &^ 0x7fffff >> 1
	u -= u &^ 0x7fff >> 1
	return u - u&^0x7f>>1
}

// The tables the codec looks lengths and masks up in: by the bit length of
// a value, the bytes its coding takes and their continuation bits; by a
// coding's length in bytes, its data bits. Sized past any index their
// callers can form.
var lebLen, lebCont, lebData = func() (n [65]uint8, cont [65]uint64, data [16]uint64) {
	for l := range n {
		k := max((l+6)/7, 1)
		n[l] = uint8(k)
		cont[l] = 0x8080808080808080 & (1<<(8*(k-1)) - 1)
	}
	for k := range data {
		data[k] = 0x7f7f7f7f7f7f7f7f & (1<<(8*min(k, 8)) - 1)
	}
	return
}()

// appendRun codes xs onto the store as one run: each value as the zigzag
// delta from the one before it — the first from prev — in an unsigned
// LEB128 varint, seven bits a byte, low bits first, the top bit set on
// every byte but a value's last. A clause's antecedents cluster near each
// other and near the clause itself, so most deltas take one to three bytes
// where the values took four. The values the last chunk surely has room for
// are coded straight into it, a word at a time; the one that may not fit
// goes a byte at a time, on into the next chunk, or, in a first chunk that
// is still growing, into what put grows it to.
func appendRun[T ~int32](c *chunked[byte], xs []T, prev T) {
	for len(xs) > 0 {
		last := c.tail()
		// spread's word reaches three bytes past the longest coding.
		fit := min(len(xs), (min(cap(*last), chunkLen)-len(*last)-3)/maxVarint)
		if fit <= 0 {
			w, k := spread(zigzag(int64(xs[0]) - int64(prev)))
			prev, xs = xs[0], xs[1:]
			for ; k > 0; k-- {
				c.put(byte(w))
				w >>= 8
			}
			continue
		}
		// Room for the longest coding of each, then cut to what they took.
		b, n := *last, len(*last)
		b = b[:n+maxVarint*fit+3]
		for _, x := range xs[:fit] {
			w, k := spread(zigzag(int64(x) - int64(prev)))
			prev = x
			binary.LittleEndian.PutUint64(b[n:], w)
			n += k
		}
		c.n += n - len(*last)
		*last = b[:n]
		xs = xs[fit:]
	}
}

// value decodes the coding that starts at byte p: its value, and the k
// bytes it takes. It reads them where they lie — a word at once while a
// whole word lies inside the chunk, a byte at a time near the chunk's end,
// on into the next chunk — and copies nothing.
func value(c *chunked[byte], p int) (u uint64, k int) {
	if chunk, i := c.chunks[p>>chunkShift], p&(chunkLen-1); i+8 <= len(chunk) {
		return gather(binary.LittleEndian.Uint64(chunk[i:]))
	}
	for shift := uint(0); ; shift += 7 {
		b := c.chunks[(p+k)>>chunkShift][(p+k)&(chunkLen-1)]
		k++
		u |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return u, k
		}
	}
}

// decodeRun appends to dst the values of the run coded in [lo, hi), whose
// first value was coded against prev.
func decodeRun[T ~int32 | ~int](c *chunked[byte], dst []T, lo, hi int, prev T) []T {
	x := int64(prev)
	for p := lo; p < hi; {
		u, k := value(c, p)
		x += unzigzag(u)
		dst = append(dst, T(x))
		p += k
	}
	return dst
}

// markRun is decodeRun for the sweep, which decodes every run a traversal
// reaches, at every extraction and collection: it sets each value's bit in
// seen instead of keeping the value. Where a value ends is known only once
// the one before it is decoded, so a load per value would have each value
// wait for the last one's load; markRun reads two values to a word load
// wherever both end inside the word.
func markRun(c *chunked[byte], seen []uint64, lo, hi int, x int64) {
	for lo < hi {
		chunk := c.chunks[lo>>chunkShift]
		from := lo & (chunkLen - 1)
		p, end := from, from+hi-lo
		for p < end && p+8 <= len(chunk) {
			w := binary.LittleEndian.Uint64(chunk[p:])
			stops := ^w & 0x8080808080808080
			k := bits.TrailingZeros64(stops|1<<63)>>3 + 1
			x += unzigzag(squeeze(w & lebData[k]))
			seen[x>>6] |= 1 << (x & 63)
			p += k
			if rest := stops & (stops - 1); rest != 0 && p < end {
				next := bits.TrailingZeros64(rest)>>3 + 1
				x += unzigzag(squeeze(w >> (8 * uint(k) & 63) & lebData[next-k]))
				seen[x>>6] |= 1 << (x & 63)
				p += next - k
			}
		}
		lo += p - from
		if lo < hi {
			// Near the chunk's end, where a value may go on into the next.
			u, k := value(c, lo)
			x += unzigzag(u)
			seen[x>>6] |= 1 << (x & 63)
			lo += k
		}
	}
}

// moveDown copies the n bytes at from to to, which lies at or below from;
// the two ranges may overlap.
func moveDown(c *chunked[byte], to, from, n int) {
	for n > 0 {
		src := c.chunks[from>>chunkShift][from&(chunkLen-1):]
		dst := c.chunks[to>>chunkShift][to&(chunkLen-1):]
		// Within one chunk copy is a memmove; across two the ranges are
		// disjoint. Either way no byte is read after it is overwritten.
		m := copy(dst[:min(n, len(dst))], src[:min(n, len(src))])
		to, from, n = to+m, from+m, n-m
	}
}

// truncate keeps the first n elements and moves the chunks past them to
// the spare list. That includes a first chunk not yet grown to full
// size: the list hands it out first, as the first chunk again, so a
// small graph reloaded at every depth grows it once, not once a depth.
func (c *chunked[T]) truncate(n int) {
	s := c.shift()
	keep := (n + 1<<s - 1) >> s
	for k := len(c.chunks) - 1; k >= keep; k-- {
		c.spare = append(c.spare, c.chunks[k][:0])
		c.chunks[k] = nil
	}
	c.chunks = c.chunks[:keep]
	if keep > 0 {
		c.chunks[keep-1] = c.chunks[keep-1][:n-(keep-1)<<s]
	}
	c.n = n
}

// bytes is what the store holds, spare chunks included.
func (c *chunked[T]) bytes() int64 {
	var elems int64
	for _, chunk := range c.chunks {
		elems += int64(cap(chunk))
	}
	for _, chunk := range c.spare {
		elems += int64(cap(chunk))
	}
	var x T
	return int64(cap(c.chunks)+cap(c.spare))*24 + elems*int64(unsafe.Sizeof(x))
}

// Recorder is the Conflict Dependency Graph. It implements
// sat.ProofRecorder.
//
// The layout is indexed by clause ID: a solver numbers originals and
// learned clauses from one dense counter and reports learned clauses in
// that order, so entry i of the end table antEnd is the byte offset where
// clause base+i's coded antecedent run ends in ants (it starts where the
// previous clause's ends). The run codes the first antecedent against the
// clause's own ID and each later one against the one before (appendRun).
// An ID that never had antecedents recorded is a leaf, and every leaf is
// an original clause: a formula clause, or a frame clause added to a live
// solver. No clause enters a solver from another one, so a core names only
// clauses of the formula the solver was given. A fresh solver's leaves are
// the formula's clauses 0..base-1 and get no table entry; a persistent
// solver's interleave with the learned clauses and get an empty one. litEnd and lits hold the Payload's clause
// literals the same way, each run coded from 0. The end tables are chunked
// like the runs, so no store the recorder keeps is ever copied to grow.
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
	antEnd  chunked[uint32]
	ants    chunked[byte]
	litEnd  chunked[uint32] // empty when payload is IDsOnly
	lits    chunked[byte]
	learned int

	final  []sat.ClauseID
	proved bool

	// The sweep's scratch, reused across extractions and collections: one
	// bit per clause ID and the leaves Core found, highest ID first.
	seen   []uint64
	leaves []sat.ClauseID

	// CoreVarsOf's scratch, reused across calls: a mark per variable, the
	// variables it returns, and a clause decoded from the payload.
	varSeen   []bool
	vars      []lits.Var
	clauseBuf []lits.Lit
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
// with r's payload, out of the storage it already has: every chunk of the
// runs and the end tables becomes a spare, and the sweep's scratch keeps
// its arrays. No record and no final conflict survive. A scratch depth loop reloads one
// recorder per solver at every depth, as it loads the solver
// (sat.Solver.Load), so each depth grows only what the last left short.
func (r *Recorder) Reload(numOriginals int) {
	r.base = sat.ClauseID(numOriginals)
	r.antEnd.truncate(0)
	r.litEnd.truncate(0)
	r.ants.truncate(0)
	r.lits.truncate(0)
	r.learned = 0
	r.final, r.proved = r.final[:0], false
}

// advance moves the table up to id: the IDs skipped are leaves nobody
// registered. Clause IDs only ever grow.
func (r *Recorder) advance(id sat.ClauseID) {
	i := int(id - r.base)
	if i < r.antEnd.n {
		panic(fmt.Sprintf("core: clause ID %d out of order (expected %d or above)", id, int(r.base)+r.antEnd.n))
	}
	for r.antEnd.n < i {
		r.closeEntry()
	}
}

// closeEntry ends the next clause's runs where the stores end now.
func (r *Recorder) closeEntry() {
	if uint(r.ants.n) >= forgottenBit {
		panic("core: more than 2^31 bytes of antecedent IDs on record")
	}
	r.antEnd.put(uint32(r.ants.n))
	if r.payload != IDsOnly {
		r.litEnd.put(uint32(r.lits.n))
	}
}

// RecordLearned implements sat.ProofRecorder. The slices are coded into
// the stores; the literals are kept only by a Complete recorder.
func (r *Recorder) RecordLearned(id sat.ClauseID, literals []lits.Lit, antecedents []sat.ClauseID) {
	if len(antecedents) == 0 {
		// It would read back as a leaf, and a proof would take it as given.
		panic(fmt.Sprintf("core: learned clause %d has no antecedents", id))
	}
	r.advance(id)
	appendRun(&r.ants, antecedents, id)
	if r.payload == Complete {
		appendRun(&r.lits, literals, 0)
	}
	r.closeEntry()
	r.learned++
}

// AddLeaf registers the literals of a clause the solver was given rather
// than derived — an original added to a live solver, such as a frame
// clause — under the ID the solver returned for it.
func (r *Recorder) AddLeaf(id sat.ClauseID, literals []lits.Lit) {
	r.advance(id)
	if r.payload != IDsOnly {
		appendRun(&r.lits, literals, 0)
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
// chunks (spare ones included), of runs and end tables alike, and its
// traversal scratch. The paper's §3.1 claims this is negligible beside the
// clause database; the overhead experiment checks.
func (r *Recorder) ApproxBytes() int64 {
	return r.ants.bytes() + r.lits.bytes() + r.antEnd.bytes() + r.litEnd.bytes() +
		4*int64(cap(r.final)+cap(r.leaves)) + 8*int64(cap(r.seen))
}

// span returns the bytes id's run lies in, in the store whose end table is
// given; IDs the table does not cover have none.
func (r *Recorder) span(end *chunked[uint32], id sat.ClauseID) (lo, hi int) {
	i := int(id - r.base)
	if i < 0 || i >= end.n {
		return 0, 0
	}
	if i > 0 {
		lo = int(end.at(i-1) &^ forgottenBit)
	}
	return lo, int(end.at(i) &^ forgottenBit)
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
// over the dropped ones inside the chunks they occupy — a run is coded
// against its own clause's ID, so its bytes mean the same wherever they
// lie — and the chunks the store no longer needs become spares. Every
// payload forgets by this rule. A Complete recorder keeps a forgotten
// record's literals, but Proof hands the record over as none.
func (r *Recorder) Forget(live []sat.ClauseID) {
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

	to, lo, id := 0, 0, int(r.base)
	for _, ends := range r.antEnd.chunks {
		for j, end := range ends {
			hi := int(end &^ forgottenBit)
			switch {
			case lo == hi:
				// A leaf, or a record forgotten before: its run stays empty.
				ends[j] = uint32(to) | end&forgottenBit
			case r.seen[id>>6]&(1<<(id&63)) != 0:
				if to != lo {
					moveDown(&r.ants, to, lo, hi-lo)
				}
				to += hi - lo
				ends[j] = uint32(to)
			default:
				ends[j] = uint32(to) | forgottenBit
			}
			lo = hi
			id++
		}
	}
	r.ants.truncate(to)
}

// Proof hands the proof r holds to proofcheck under the failed assumptions
// of the last UNSAT answer: every clause by ID — a fresh solve's originals
// from the formula it ran on (originals may be nil), the rest from r — and
// the final conflict. A forgotten record, a leaf r has no literals for and
// an ID past the table are no record, never a leaf. Only a Complete
// recorder's learned clauses carry literals. Nil without a final conflict.
func (r *Recorder) Proof(originals *cnf.Formula, assumptions []lits.Lit) *proofcheck.Proof {
	if !r.proved {
		return nil
	}
	held := make([]proofcheck.Clause, int(r.base)+r.antEnd.n)
	p := &proofcheck.Proof{Clauses: make([]*proofcheck.Clause, len(held)), Assumptions: assumptions}
	var literals []lits.Lit
	var ants []int
	for id := range held {
		c, i, cid := &held[id], id-int(r.base), sat.ClauseID(id)
		switch {
		case i < 0 && originals != nil && id < originals.NumClauses():
			c.Lits = originals.Clause(id)
		case i < 0 || r.payload == IDsOnly || r.antEnd.at(i)&forgottenBit != 0:
			continue
		default:
			n, m := len(literals), len(ants)
			lo, hi := r.span(&r.litEnd, cid)
			literals = decodeRun(&r.lits, literals, lo, hi, 0)
			lo, hi = r.span(&r.antEnd, cid)
			ants = decodeRun(&r.ants, ants, lo, hi, id)
			if len(literals) == n && len(ants) == m {
				continue
			}
			c.Lits, c.Ants = literals[n:len(literals):len(literals)], ants[m:len(ants):len(ants)]
		}
		p.Clauses[id] = c
	}
	for _, id := range r.final {
		p.Final = append(p.Final, int(id))
	}
	return p
}

// above returns the lowest ID above every record and every ID in ids.
func (r *Recorder) above(ids []sat.ClauseID) int {
	top := int(r.base) + r.antEnd.n
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
		lo, hi := r.span(&r.antEnd, sat.ClauseID(id))
		if lo == hi {
			if i := id - int(r.base); i >= 0 && i < r.antEnd.n && r.antEnd.at(i)&forgottenBit != 0 {
				panic(fmt.Sprintf("core: the CDG reached clause %d, whose record was forgotten", id))
			}
			if collect {
				r.leaves = append(r.leaves, sat.ClauseID(id))
			}
			continue
		}
		markRun(&r.ants, r.seen, lo, hi, int64(id))
	}
}

// clause resolves id to its literals: the payload's, decoded into
// clauseBuf, when the recorder keeps them, the formula's otherwise
// (originals may be nil). The result is valid until the next call.
func (r *Recorder) clause(id sat.ClauseID, originals *cnf.Formula) []lits.Lit {
	if id >= r.base && r.payload != IDsOnly {
		lo, hi := r.span(&r.litEnd, id)
		r.clauseBuf = decodeRun(&r.lits, r.clauseBuf[:0], lo, hi, 0)
		return r.clauseBuf
	}
	if originals == nil || id < 0 || int(id) >= originals.NumClauses() {
		return nil
	}
	return originals.Clause(int(id))
}

// Vars is the one walk from core clauses to the variables the score board
// ranks: the distinct variables up to nVars in the n clauses clause(0..n-1)
// returns (each used before the next call), minus those aux reports as
// auxiliaries of the encoding — guards and disequality helpers are
// plumbing, and bmc_score ranks circuit variables only. A nil aux keeps
// every variable (scratch numbering has no auxiliaries). Sorted ascending.
func Vars(n int, clause func(i int) []lits.Lit, nVars int, aux func(lits.Var) bool) []lits.Var {
	var seen []bool
	return varsInto(&seen, nil, n, clause, nVars, aux)
}

// varsInto is Vars with its marks in *seen's array and its result written
// over out's, each where it is large enough.
func varsInto(seen *[]bool, out []lits.Var, n int, clause func(i int) []lits.Lit, nVars int, aux func(lits.Var) bool) []lits.Var {
	marks := slices.Grow((*seen)[:0], nVars+1)[:nVars+1]
	clear(marks)
	*seen = marks
	for i := 0; i < n; i++ {
		for _, l := range clause(i) {
			if v := l.Var(); int(v) <= nVars {
				marks[v] = true
			}
		}
	}
	out = out[:0]
	for v := lits.Var(1); int(v) <= nVars; v++ {
		if marks[v] && (aux == nil || !aux(v)) {
			out = append(out, v)
		}
	}
	return out
}

// CoreVarsOf maps core clause IDs (as Core returns them) to their
// variables through Vars. Leaves the recorder holds no literals for are
// looked up in originals, the formula the solve ran on. The result is the
// recorder's scratch, valid until the next call: ScoreBoard.Update copies
// what it keeps. A warmed recorder allocates nothing.
func (r *Recorder) CoreVarsOf(ids []int, originals *cnf.Formula, nVars int, aux func(lits.Var) bool) []lits.Var {
	r.vars = varsInto(&r.varSeen, r.vars, len(ids), func(i int) []lits.Lit {
		return r.clause(sat.ClauseID(ids[i]), originals)
	}, nVars, aux)
	return r.vars
}

// CoreVars returns the sorted set of variables occurring in the unsat-core
// clauses of formula f (which must be the formula the solve ran on), valid
// until the next call, as CoreVarsOf's.
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

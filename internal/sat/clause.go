package sat

import (
	"math"

	"repro/internal/cnf"
	"repro/internal/lits"
)

// ClauseID identifies a clause in the proof. IDs below the original clause
// count refer to input-formula clauses (by index); higher IDs are learned
// clauses in order of derivation.
type ClauseID = int32

// cref addresses a clause in the solver's arena: the index of the first
// word of its header. A cref stays valid until the next compaction, which
// rewrites the ones held in the watch lists, the reasons and learnts and
// nothing else.
type cref uint32

// crefUndef is "no clause": the reason of a decision, no conflict.
const crefUndef cref = math.MaxUint32

// A clause of n literals at c is
//
//	c+hdrID     proof ID
//	c+hdrSize   n
//	c+hdrFlags  flagLearnt | flagForeign | flagDeleted | LBD<<lbdShift
//	c+hdrWords  the n literals, the two watched ones first
//	...         learnt clauses only: actWords words of recency stamp
//
// all in one []uint32 that holds no pointers — the collector never looks
// inside the clause store, and BCP reads a clause's size and its first
// literals from one cache line. The stamp trails the literals so that the
// input formula's clauses, the bulk of a BMC instance and never candidates
// for deletion, do not carry one.
//
// The proof ID is the clause's pseudo ID for the proof recorder: original
// clauses keep their index in the input formula, learned clauses get
// sequential IDs following the originals. The ID can outlive the clause —
// the conflict dependency graph kept by the recorder references deleted
// clauses by ID, which is the paper's §3.1 trick for extracting unsat cores
// without disabling clause deletion. A record lives while a live clause's
// derivation can reach it; the recorder drops the others when reduceDB
// compacts (ProofRecorder.Forget).
const (
	hdrID = iota
	hdrSize
	hdrFlags
	hdrWords // header length: the literals start here
)

// actWords is the length of a learnt clause's recency stamp, an int64 with
// its low word first.
const actWords = 2

const (
	flagLearnt = 1 << iota
	// flagForeign marks a learned clause imported from another solver
	// (Solver.ImportClause); foreign clauses are never re-exported, so the
	// clause-sharing bus cannot echo.
	flagForeign
	// flagDeleted marks a clause reduceDB has removed; its words are
	// garbage until the next compaction.
	flagDeleted
	// The remaining bits hold the literal-block distance at learn time
	// (distinct decision levels among the clause's literals) — the
	// Glucose-style quality measure the clause-sharing export filter uses.
	// Foreign clauses carry their length as a pessimistic stand-in. An LBD
	// is at most the variable count, which is below 2^30.
	lbdShift = iota
)

const (
	// arenaGrowDen sets the arena's growth step to 1/arenaGrowDen of its
	// capacity (a factor of 1.5).
	arenaGrowDen = 2
	// loadSlackDen: New reserves 1/loadSlackDen of the formula's words past
	// the formula for learned clauses, so a solver that learns little (most
	// depths of a BMC run) never copies the store it has just loaded.
	loadSlackDen = 8
	// garbageDen: reduceDB compacts once deleted clauses hold at least
	// 1/garbageDen of the arena.
	garbageDen = 5
)

// arena is the clause store. wasted counts the words of deleted clauses.
type arena struct {
	mem    []uint32
	wasted int
}

func (a *arena) id(c cref) ClauseID   { return ClauseID(a.mem[c+hdrID]) }
func (a *arena) size(c cref) int      { return int(a.mem[c+hdrSize]) }
func (a *arena) learnt(c cref) bool   { return a.mem[c+hdrFlags]&flagLearnt != 0 }
func (a *arena) foreign(c cref) bool  { return a.mem[c+hdrFlags]&flagForeign != 0 }
func (a *arena) deleted(c cref) bool  { return a.mem[c+hdrFlags]&flagDeleted != 0 }
func (a *arena) lbd(c cref) int32     { return int32(a.mem[c+hdrFlags] >> lbdShift) }
func (a *arena) lits(c cref) []uint32 { return a.mem[c+hdrWords : a.litsEnd(c)] }

// litsEnd is the index past c's last literal: a learnt clause's stamp.
func (a *arena) litsEnd(c cref) cref { return c + hdrWords + cref(a.mem[c+hdrSize]) }

// words is the clause's extent in the arena; c+words(c) is the next clause.
func (a *arena) words(c cref) cref { return cref(wordsFor(a.size(c), a.mem[c+hdrFlags])) }

// wordsFor is the extent of a clause of n literals with the given flags.
func wordsFor(n int, flags uint32) int {
	if flags&flagLearnt != 0 {
		return hdrWords + n + actWords
	}
	return hdrWords + n
}

// act is a learnt clause's recency stamp (the conflict count when the
// clause last participated in conflict analysis); clause-database reduction
// evicts the stalest learned clauses first.
func (a *arena) act(c cref) int64 {
	at := a.litsEnd(c)
	return int64(a.mem[at]) | int64(a.mem[at+1])<<32
}

// touch stamps c if it is learnt; an original clause has no use for one.
func (a *arena) touch(c cref, stamp int64) {
	if a.learnt(c) {
		at := a.litsEnd(c)
		a.mem[at], a.mem[at+1] = uint32(stamp), uint32(stamp>>32)
	}
}

// fits reports whether words more words go into the arena where it is.
func (a *arena) fits(words int) bool { return len(a.mem)+words <= cap(a.mem) }

// grow moves the store to a larger array with room for at least words more
// words: the larger of a growth step and hint words. Old and new array
// coexist until the collector runs, which is why Solver.reserve compacts
// instead when that makes the room.
func (a *arena) grow(words, hint int) {
	need := len(a.mem) + words
	if uint64(need) >= uint64(crefUndef) {
		panic("sat: clause arena exceeds 2^32 words")
	}
	newCap := max(cap(a.mem)+cap(a.mem)/arenaGrowDen, need, hint)
	mem := make([]uint32, len(a.mem), newCap)
	copy(mem, a.mem)
	a.mem = mem
}

// push appends a clause at the arena's tail, stamped with act if flags say
// it is learnt; the caller has made room for wordsFor(len(ls), flags).
func (a *arena) push(id ClauseID, flags uint32, act int64, ls []lits.Lit) cref {
	c := cref(len(a.mem))
	a.mem = a.mem[:int(c)+wordsFor(len(ls), flags)]
	a.mem[c+hdrID] = uint32(id)
	a.mem[c+hdrSize] = uint32(len(ls))
	a.mem[c+hdrFlags] = flags
	dst := a.mem[c+hdrWords:]
	for i, l := range ls {
		dst[i] = uint32(l)
	}
	a.touch(c, act)
	return c
}

// normalizeTail sorts and deduplicates the literals of c, the clause at the
// arena's tail, where they lie, and gives the words that frees back. It
// reports whether c is a tautology, which callers then pop.
func (a *arena) normalizeTail(c cref) (taut bool) {
	before := a.lits(c)
	ls, taut := cnf.NormalizeLits(before)
	if len(ls) < len(before) {
		a.mem[c+hdrSize] = uint32(len(ls))
		end := int(a.litsEnd(c))
		if a.learnt(c) {
			end += copy(a.mem[end:], a.mem[len(a.mem)-actWords:]) // the stamp follows the literals down
		}
		a.mem = a.mem[:end]
	}
	return taut
}

// pop removes c, the clause at the arena's tail.
func (a *arena) pop(c cref) { a.mem = a.mem[:c] }

// free marks c deleted. Its words stay where they are, so crefs to other
// clauses stay valid, until Solver.compact reclaims them.
func (a *arena) free(c cref) {
	a.mem[c+hdrFlags] |= flagDeleted
	a.wasted += int(a.words(c))
}

// watcher is an entry in a literal's watch list: the watching clause plus a
// "blocker" literal from the clause; if the blocker is already true the
// clause is satisfied and the watch scan can skip loading the clause.
type watcher struct {
	c       cref
	blocker lits.Lit
}

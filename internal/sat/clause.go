package sat

import (
	"math"
	"slices"

	"repro/internal/cnf"
	"repro/internal/lits"
)

// ClauseID identifies a clause in the proof. IDs below the original clause
// count refer to input-formula clauses (by index); higher IDs are learned
// clauses in order of derivation.
type ClauseID = int32

// cref addresses a clause in the solver's arena: the word index of its
// header, page<<pageShift | offset in the page. A cref stays valid until
// the next compaction, which rewrites the ones held in the watch lists, the
// reasons and learnts and nothing else.
type cref uint32

// crefUndef is "no clause": the reason of a decision, no conflict.
const crefUndef cref = math.MaxUint32

// A clause of n literals is
//
//	hdrID     proof ID
//	hdrSize   n
//	hdrFlags  flagLearnt | flagDeleted
//	hdrWords  the n literals, the two watched ones first
//	...       learnt clauses only: actWords words of recency stamp
//
// in consecutive words of one page of the arena, which holds no pointers —
// the collector never looks inside the clause store, and BCP reads a
// clause's size and its first literals from one cache line. The stamp
// trails the literals so that the input formula's clauses, the bulk of a
// BMC instance and never candidates for deletion, do not carry one.
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
	// flagDeleted marks a clause reduceDB has removed; its words are
	// garbage until the next compaction.
	flagDeleted
)

// The arena's pages are 2^16 words (256 KB) long.
const (
	pageShift = 16
	pageWords = 1 << pageShift
	pageMask  = pageWords - 1
)

// arena is the clause store, in pages. Slot p of the page table holds the
// clauses whose crefs lie in [p<<pageShift, (p+1)<<pageShift), back to back
// from the page's start; a page's length is how far they reach. A clause
// never straddles two pages. Growing the store opens a page and copies
// nothing, so a clause stays where it was made until compaction moves it
// and the solver never holds two copies of its clauses.
//
// A page is pageWords long, but for two kinds. The first is made by the
// first Load that has clauses to store, exactly as large as that formula,
// up to a page. And a clause longer than a page gets a page of its own, at
// least as long as the clause, which spans as many slots as it needs: the
// slots past its first are nil, and no other clause goes into it. No page
// is ever resized: Load and compaction hand the pages they empty to the
// spare list, which later growth draws from before it allocates.
type arena struct {
	pages  [][]uint32
	spare  [][]uint32
	wasted int // the words of deleted clauses
}

// clause is a clause's words, from its header to its page's end.
type clause []uint32

// at is the clause at c. Reading its fields through one view loads the
// page table once per clause.
func (a *arena) at(c cref) clause { return a.pages[c>>pageShift][c&pageMask:] }

func (k clause) id() ClauseID   { return ClauseID(k[hdrID]) }
func (k clause) size() int      { return int(k[hdrSize]) }
func (k clause) learnt() bool   { return k[hdrFlags]&flagLearnt != 0 }
func (k clause) deleted() bool  { return k[hdrFlags]&flagDeleted != 0 }
func (k clause) lits() []uint32 { return k[hdrWords : hdrWords+k[hdrSize]] }

// words is the clause's extent in its page.
func (k clause) words() int { return wordsFor(k.size(), k[hdrFlags]) }

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
func (k clause) act() int64 {
	at := hdrWords + k[hdrSize]
	return int64(k[at]) | int64(k[at+1])<<32
}

// touch stamps the clause if it is learnt; an original clause has no use
// for one.
func (k clause) touch(stamp int64) {
	if k.learnt() {
		at := hdrWords + k[hdrSize]
		k[at], k[at+1] = uint32(stamp), uint32(stamp>>32)
	}
}

// clauses walks the arena's clauses, deleted ones included, in cref order:
// page by page, each from its start; range over it as over an
// iter.Seq2[cref, clause]. It takes a clause's extent before it yields the
// clause, so the loop body may move the clause's words (compact does).
// Load's attach pass walks the pages itself, which is cheaper than a call
// per clause.
func (a *arena) clauses(yield func(cref, clause) bool) {
	for p, pg := range a.pages {
		for off := 0; off < len(pg); {
			k := clause(pg[off:])
			next := off + k.words()
			if !yield(cref(p<<pageShift|off), k) {
				return
			}
			off = next
		}
	}
}

// used is the words the clauses take, deleted ones included.
func (a *arena) used() int {
	n := 0
	for _, pg := range a.pages {
		n += len(pg)
	}
	return n
}

// fits reports whether a clause of w words goes at pg's end: inside the
// page's first pageWords, or anywhere in an empty page that holds it.
func fits(pg []uint32, w int) bool {
	n := len(pg)
	return n+w <= min(cap(pg), pageWords) || n == 0 && w <= cap(pg)
}

// span is how many slots pg takes in the page table.
func span(pg []uint32) int { return max(1, (cap(pg)+pageMask)>>pageShift) }

// reload empties the arena for a formula of words words: every page but
// the first goes to the spare list, and a first page that holds nothing is
// made, exactly as large as the formula up to a page, where the formula has
// words to store.
func (a *arena) reload(words int) {
	for p := len(a.pages) - 1; p > 0; p-- {
		a.release(p)
	}
	var first []uint32
	if len(a.pages) > 0 {
		first = a.pages[0][:0]
	}
	if cap(first) == 0 {
		if w := min(words, pageWords); w > 0 {
			if first = a.spareFor(w); first == nil {
				first = make([]uint32, 0, w)
			}
		}
	}
	a.pages = append(a.pages[:0], first)
	for range span(first) - 1 {
		a.pages = append(a.pages, nil)
	}
	a.wasted = 0
}

// release hands the page in slot p to the spare list.
func (a *arena) release(p int) {
	if pg := a.pages[p]; pg != nil {
		a.spare = append(a.spare, pg[:0])
		a.pages[p] = nil
	}
}

// spareFor takes the last spare page that holds w words off the spare
// list, or returns nil.
func (a *arena) spareFor(w int) []uint32 {
	for i := len(a.spare) - 1; i >= 0; i-- {
		if pg := a.spare[i]; cap(pg) >= w {
			a.spare = slices.Delete(a.spare, i, i+1)
			return pg
		}
	}
	return nil
}

// tail returns the slot whose page a clause of w words goes at the end of:
// the last page's, or a page opened after it.
func (a *arena) tail(w int) int {
	if p := len(a.pages) - 1; p >= 0 && fits(a.pages[p], w) {
		return p
	}
	pg := a.spareFor(w)
	if pg == nil {
		pg = make([]uint32, 0, max(w, pageWords))
	}
	p := len(a.pages)
	if p+span(pg) > 1<<(32-pageShift) {
		panic("sat: clause arena exceeds 2^32 words")
	}
	a.pages = append(a.pages, pg)
	for range span(pg) - 1 {
		a.pages = append(a.pages, nil)
	}
	return p
}

// push appends a clause at the arena's tail, stamped with act if flags say
// it is learnt, opening a page when the last one has no room.
func (a *arena) push(id ClauseID, flags uint32, act int64, ls []lits.Lit) cref {
	w := wordsFor(len(ls), flags)
	p := a.tail(w)
	pg := a.pages[p]
	off := len(pg)
	pg = pg[:off+w]
	a.pages[p] = pg
	k := clause(pg[off:])
	k[hdrID] = uint32(id)
	k[hdrSize] = uint32(len(ls))
	k[hdrFlags] = flags
	dst := k[hdrWords:]
	for i, l := range ls {
		dst[i] = uint32(l)
	}
	k.touch(act)
	return cref(p<<pageShift | off)
}

// normalizeTail sorts and deduplicates the literals of c, the clause at the
// arena's tail, where they lie, and gives the words that frees back. It
// reports whether c is a tautology, which callers then pop.
func (a *arena) normalizeTail(c cref) (taut bool) {
	p, off := c>>pageShift, int(c&pageMask)
	pg := a.pages[p]
	k := clause(pg[off:])
	before := k.lits()
	ls, taut := cnf.NormalizeLits(before)
	if len(ls) < len(before) {
		k[hdrSize] = uint32(len(ls))
		end := off + hdrWords + len(ls)
		if k.learnt() {
			end += copy(pg[end:], pg[len(pg)-actWords:]) // the stamp follows the literals down
		}
		a.pages[p] = pg[:end]
	}
	return taut
}

// pop removes c, the clause at the arena's tail. A page it leaves empty
// goes back to the spare list, unless it is the first.
func (a *arena) pop(c cref) {
	p, off := int(c>>pageShift), int(c&pageMask)
	if off == 0 && p > 0 {
		a.release(p)
		a.pages = a.pages[:p]
		return
	}
	a.pages[p] = a.pages[p][:off]
}

// free marks k deleted. Its words stay where they are, so crefs to other
// clauses stay valid, until compact reclaims them.
func (a *arena) free(k clause) {
	k[hdrFlags] |= flagDeleted
	a.wasted += k.words()
}

// move says that the clauses from cref from up to the next move's go down
// by shift words.
type move struct{ from, shift cref }

// compact slides the live clauses down over the deleted ones, in order and
// across page boundaries: a clause that does not fit in the rest of the
// page it would go to starts the next page that holds it. The pages that
// end up empty, but the first, go to the spare list. It returns, in moves'
// array, where the clauses went: a move wherever the shift changes, which is
// at each run of deleted clauses and at each page jump.
func (a *arena) compact(moves []move) []move {
	moves = moves[:0]
	var shift cref
	d, dst := 0, a.pages[0][:0] // the page clauses go to, filled so far
	for c, k := range a.clauses {
		if k.deleted() {
			continue
		}
		w := k.words()
		if !fits(dst, w) {
			a.pages[d] = dst
			for d++; a.pages[d] == nil || !fits(a.pages[d][:0], w); d++ {
				a.release(d) // the clause skips it, and so does every one after
			}
			dst = a.pages[d][:0]
		}
		if to := cref(d<<pageShift | len(dst)); c-to != shift {
			shift = c - to
			moves = append(moves, move{c, shift})
		}
		dst = append(dst, k[:w]...) // in the same page, a memmove down
	}
	a.pages[d] = dst
	end := d + span(dst)
	for p := end; p < len(a.pages); p++ {
		a.release(p)
	}
	a.pages = a.pages[:end]
	a.wasted = 0
	return moves
}

// watcher is an entry in a literal's watch list: the watching clause plus a
// "blocker" literal from the clause; if the blocker is already true the
// clause is satisfied and the watch scan can skip loading the clause.
type watcher struct {
	c       cref
	blocker lits.Lit
}

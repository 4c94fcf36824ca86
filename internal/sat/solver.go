// Package sat implements a complete CDCL (conflict-driven clause learning)
// satisfiability solver in the lineage of Chaff: two-watched-literal
// propagation, first-UIP conflict analysis, Chaff's VSIDS decision heuristic
// (per-literal decaying sum with periodic rescoring), learned-clause
// database reduction, and restarts.
//
// Two hooks distinguish it from a plain solver and exist for the BMC
// ordering-refinement layer built on top (internal/core):
//
//   - Options.Guidance supplies an external per-variable score consulted
//     before cha_score when choosing decisions (the paper's bmc_score), with
//     an optional decision-count switch back to pure VSIDS (the paper's
//     dynamic strategy);
//   - Options.Recorder receives, for every learned clause, the pseudo IDs of
//     its resolution antecedents, enabling unsat-core extraction that
//     survives learned-clause deletion (the paper's simplified CDG).
//
// The solver is deterministic: identical inputs and options produce
// identical searches.
package sat

import (
	"fmt"
	"time"

	"repro/internal/cnf"
	"repro/internal/lits"
)

// tables is the storage of a Solver: every array whose size follows the
// formula's. It is what Load keeps — emptied, and replaced where it has
// become too small; every Solver field outside it starts from zero.
type tables struct {
	ca      arena  // every clause, original and learnt
	learnts []cref // the live learnt clauses, oldest first
	moves   []move // compact's scratch

	watches [][]watcher // indexed by lit.Index()
	// watchSlab is the array Load carves every watch list from. A list that
	// outgrows its share moves out of it; the next Load lays them all out
	// in it again.
	watchSlab []watcher

	// vals is the truth table, indexed by lit.Index(): +1 where the literal
	// is true, -1 where it is false, 0 where its variable is unassigned, so
	// vals[l] == -vals[l.Neg()] always. uncheckedEnqueue writes both
	// polarities and cancelUntil clears both; it is the only record of the
	// current assignment, and everything that asks for a literal's value —
	// propagate above all — reads one byte of it.
	vals     []int8
	reason   []cref  // per var; crefUndef for decisions and unassigned variables
	level    []int32 // per var
	trail    []lits.Lit
	trailLim []int

	chaScore []float64 // per lit: Chaff decaying sum
	newCount []int32   // per lit: conflict-clause literal counts since last rescore

	heap *varHeap

	seen    []bool // per var scratch for analyze
	toClear []lits.Var

	// learntBuf and antsBuf hold the clause analyze is deriving and its
	// antecedent IDs. Both are overwritten by the next conflict: addLearned
	// copies the clause into the arena and recorders copy what they keep.
	learntBuf []lits.Lit
	antsBuf   []ClauseID

	// reduceDB's scratch: the learnt clauses' stamps, and their IDs for the
	// proof recorder.
	stamps  []int64
	liveIDs []ClauseID

	// hint is the formula size Grow announced; a table Load has to replace
	// is made large enough for it.
	hint formulaSize
}

// formulaSize is a formula's variable and clause counts.
type formulaSize struct{ vars, clauses int }

// Solver holds the complete search state for one formula. A Solver is
// reusable and incremental: build with New (or Load a formula into one a
// finished search has left behind), then alternate AddVars/AddClause
// (which grow the watch lists, scores, and decision heap in place) with
// SolveAssuming calls that solve the current clause set under a literal
// assumption list. Learned clauses and VSIDS scores persist across calls,
// which is what lets a BMC loop compound its clause database across
// unrolling depths instead of rebuilding every instance from scratch
// (engine.WithIncremental). Plain Solve is SolveAssuming(nil); single-use
// callers need not know about any of this.
type Solver struct {
	opts  Options
	tune  tuning
	nVars int

	tables

	nClauses     int // original clauses in ca (tautologies excluded)
	qhead        int
	sinceRescore int

	guid       []float64 // per var; nil when no guidance
	guidActive bool

	maxLearnts float64
	// nextID is the shared clause-ID counter: original clauses added after
	// construction and learned clauses draw from the same sequence, so IDs
	// stay unique even when originals and learnts interleave across
	// incremental SolveAssuming calls.
	nextID    ClauseID
	recording bool

	status    Status
	finalAnts []ClauseID

	// assumps is the assumption list of the SolveAssuming call in progress:
	// each literal is enqueued as the pseudo-decision of its own decision
	// level before ordinary branching starts.
	assumps []lits.Lit

	// cooperative cancellation (Options.Stop); stopping gates all polling
	// so the non-cancellable path costs nothing.
	stopping      bool
	sinceStopPoll int

	// deadline polling shares the pollEvery cadence and covers both
	// the conflict and the decision path, so propagation-heavy solves with
	// few conflicts still observe Options.Deadline.
	hasDeadline       bool
	sinceDeadlinePoll int

	stats Stats // per-call counters (reset by each Solve/SolveAssuming)
	total Stats // lifetime counters accumulated across calls

	// restart bookkeeping
	restartIdx    int
	conflictsLeft int64

	compactions int // arena compactions so far; tests read it
}

// New builds a solver for the formula with the given options: Load on an
// empty solver, whose every table is then allocated at exactly its size.
func New(f *cnf.Formula, opts Options) *Solver {
	s := new(Solver)
	s.Load(f, opts)
	return s
}

// Grow announces that s will be loaded with formulas of up to vars
// variables and clauses clauses. Like slices.Grow it sizes storage ahead,
// but it only records the size: the next Load that has to replace a table
// makes it large enough for such a formula, and a solver that is never
// loaded allocates nothing. Without a hint a table is replaced by one of
// exactly the size the formula needs, which is how New sizes it. The clause
// arena takes no hint: it grows by pages and never copies.
func (s *Solver) Grow(vars, clauses int) {
	s.hint = formulaSize{vars, clauses}
}

// fit returns a slice of length n, its contents undefined: over *p's array
// when that is large enough, over a new one otherwise, with room for hint
// elements where that is more than n. *p lets go of the array it had before
// the new one is made, so the two are never live together; p must point
// into the heap, or the compiler drops that store as dead.
func fit[S ~[]T, T any](p *S, n, hint int) S {
	if cap(*p) >= n {
		return (*p)[:n]
	}
	*p = nil
	return make(S, n, max(n, hint))
}

// zeroed is fit with every element zero.
func zeroed[S ~[]T, T any](p *S, n, hint int) S {
	reused := cap(*p) >= n
	s := fit(p, n, hint)
	if reused {
		clear(s)
	}
	return s
}

// reset zeroes every field of s but the tables, as in a new solver, and
// sets what the options set. It is not inlined: the struct is built in a
// stack temporary holding the old tables' pointers, and in Load's frame —
// which the collector scans conservatively when it preempts one of Load's
// loops — that would keep every table Load replaces alive for a cycle more.
//
//go:noinline
func (s *Solver) reset(opts Options, nVars int) {
	*s = Solver{
		tables:      s.tables,
		opts:        opts,
		tune:        opts.tuning(),
		nVars:       nVars,
		guid:        opts.Guidance,
		guidActive:  opts.Guidance != nil,
		recording:   opts.Recorder != nil,
		stopping:    opts.Stop != nil,
		hasDeadline: !opts.Deadline.IsZero(),
		status:      Unknown,
	}
}

// Load makes s the solver New(f, opts) builds, whatever it held and
// wherever its last search stopped, out of the storage it already has:
// the clause arena's pages, the watch lists and the slab they are carved
// from, the trail, the per-variable and per-literal tables, the decision
// heap and the analysis scratch are reused where they are large enough and
// replaced, sized for the formula or for what Grow announced, where they
// are not.
// Nothing else survives — learnt clauses, scores, counters and status all
// start as New starts them, so the search that follows cannot tell a
// loaded solver from a new one. It is a reload
// and not a reset because a search permutes the watch lists and the
// literals inside clauses; only loading the formula again restores the
// order a fresh solver would search in.
//
// The formula is copied into internal storage; it is not modified and may
// be reused. Clause IDs reported to the proof recorder are the formula's
// clause indices. Results the solver returned earlier (models, failed
// assumptions) and what its recorder was handed are copies and stay valid.
//
// The load allocates per solver, not per clause, and nothing at all when
// the storage suffices: the arena pages its clauses need beyond those it
// holds, one slab holding every watch list at its exact length, and the
// per-variable tables.
func (s *Solver) Load(f *cnf.Formula, opts Options) {
	n := f.NumVars

	s.reset(opts, n)
	h := s.hint
	s.ca.reload(f.NumClauses()*hdrWords + f.NumLiterals())
	s.learnts, s.moves = s.learnts[:0], s.moves[:0]
	s.watches = fit(&s.watches, 2*n+2, 2*h.vars+2) // every list is set below
	s.vals = zeroed(&s.vals, 2*n+2, 2*h.vars+2)
	s.reason = fit(&s.reason, n+1, h.vars+1)
	for v := range s.reason {
		s.reason[v] = crefUndef
	}
	s.level = zeroed(&s.level, n+1, h.vars+1)
	s.trail, s.trailLim = fit(&s.trail, n, h.vars)[:0], s.trailLim[:0]
	s.chaScore = zeroed(&s.chaScore, 2*n+2, 2*h.vars+2)
	s.newCount = zeroed(&s.newCount, 2*n+2, 2*h.vars+2)
	s.seen, s.toClear = zeroed(&s.seen, n+1, h.vars+1), s.toClear[:0]
	s.learntBuf, s.antsBuf = s.learntBuf[:0], s.antsBuf[:0]
	s.stamps, s.liveIDs = s.stamps[:0], s.liveIDs[:0]
	if s.heap == nil {
		s.heap = new(varHeap)
	}
	s.heap.reset(s, n)

	// Copy the clauses in, normalising each where it lands. IDs are formula
	// indices. Tautologies can never be falsified, so they are skipped
	// entirely (they cannot appear in any unsat core). A literal's cha_score
	// starts at its occurrence count in what is stored (paper §3.3), the
	// rule install applies to clauses added later. newCount is all zero
	// until the first conflict; until then it is this load's scratch, here
	// the number of watchers each list will hold. The copy goes straight
	// into the page at the arena's tail, p, filled as far as pg reaches; the
	// walk takes each clause's literals from the formula's flat array up to
	// its end offset.
	next := s.newCount
	p := len(s.ca.pages) - 1
	pg := s.ca.pages[p]
	var lo int32
	for i, hi := range f.Ends {
		raw := f.Lits[lo:hi]
		lo = hi
		w := hdrWords + len(raw)
		if !fits(pg, w) {
			s.ca.pages[p] = pg
			p = s.ca.tail(w)
			pg = s.ca.pages[p]
		}
		off := len(pg)
		k := clause(pg[off : off+w])
		k[hdrID], k[hdrSize], k[hdrFlags] = uint32(i), uint32(len(raw)), 0
		for j, l := range raw {
			k[hdrWords+j] = uint32(l)
		}
		ls, taut := cnf.NormalizeLits(k[hdrWords:])
		if taut {
			continue
		}
		k[hdrSize] = uint32(len(ls))
		pg = pg[:off+hdrWords+len(ls)]
		s.nClauses++
		for _, w := range ls {
			s.chaScore[lits.Lit(w).Index()]++
		}
		if len(ls) >= 2 {
			next[lits.Lit(ls[0]).Neg().Index()]++
			next[lits.Lit(ls[1]).Neg().Index()]++
		}
	}
	s.ca.pages[p] = pg

	// All watch lists lie back to back in one slab; next[i] becomes where
	// list i's next watcher goes.
	var off int32
	for i, k := range next {
		next[i] = off
		off += k
	}
	if cap(s.watchSlab) < int(off) {
		// The lists still lie in the slab about to be replaced; without
		// them it is garbage before its successor is made.
		clear(s.watches)
	}
	// Two watchers a clause bounds a formula's slab.
	slab := fit(&s.watchSlab, int(off), 2*h.clauses) // every watcher is set below
	s.watchSlab = slab

	// Attach in formula order, which fixes the order of every watch list
	// and of the level-0 trail. Unit clauses are enqueued at level 0. The
	// walk goes page by page; an original clause carries no stamp.
	for p, pg := range s.ca.pages {
		for at := 0; at < len(pg); {
			k := clause(pg[at:])
			c := cref(p<<pageShift | at)
			at += hdrWords + k.size()
			switch ls := k.lits(); len(ls) {
			case 0:
				// Empty clause: immediately unsatisfiable.
				if s.status != Unsat {
					s.status = Unsat
					s.finalAnts = []ClauseID{k.id()}
				}
			case 1:
				l := lits.Lit(ls[0])
				switch v := s.vals[l.Index()]; {
				case v == 0:
					s.uncheckedEnqueue(l, c)
				case v < 0:
					if s.status != Unsat {
						s.status = Unsat
						s.finalAnts = s.collectFinal(c)
					}
				}
			default:
				l0, l1 := lits.Lit(ls[0]), lits.Lit(ls[1])
				slab[next[l0.Neg().Index()]] = watcher{c, l1}
				next[l0.Neg().Index()]++
				slab[next[l1.Neg().Index()]] = watcher{c, l0}
				next[l1.Neg().Index()]++
			}
		}
	}

	// Every list gets its length as its capacity too, so an append past it
	// moves that list and can never write into the next one.
	off = 0
	for i, end := range next {
		s.watches[i] = slab[off:end:end]
		off = end
		next[i] = 0
	}

	s.maxLearnts = max(float64(s.nClauses)*s.tune.maxLearntFrac, s.tune.minLearnts)
	s.nextID = ClauseID(f.NumClauses())
	s.heap.build(s.newCount)
}

// NumVars returns the variable count of the underlying formula.
func (s *Solver) NumVars() int { return s.nVars }

// Stats returns a snapshot of the current search statistics. For a reused
// solver the counters are lifetime totals across all Solve/SolveAssuming
// calls (plus any enqueues made since the last call); each Result carries
// its own per-call snapshot.
func (s *Solver) Stats() Stats {
	t := s.total
	t.Add(s.stats)
	return t
}

// AddVars grows the solver so variables 1..n exist, extending the watch
// lists, score tables, and decision heap in place. Growing is idempotent;
// shrinking is not supported. Part of the incremental interface: the BMC
// delta unroller adds one frame's worth of variables per depth.
//
// A table without room moves once, with every other per-variable and
// per-literal table, to the size Grow announced when that holds n
// variables; without such a hint each grows by append.
func (s *Solver) AddVars(n int) {
	if n <= s.nVars {
		return
	}
	hv, hl := s.hint.vars+1, 2*s.hint.vars+2
	s.watches = extend(s.watches, 2*n+2, hl, nil)
	s.chaScore = extend(s.chaScore, 2*n+2, hl, 0)
	s.newCount = extend(s.newCount, 2*n+2, hl, 0)
	s.vals = extend(s.vals, 2*n+2, hl, 0)
	s.reason = extend(s.reason, n+1, hv, crefUndef)
	s.level = extend(s.level, n+1, hv, 0)
	s.seen = extend(s.seen, n+1, hv, false)
	s.trail = room(s.trail, n, s.hint.vars)
	if s.guid != nil {
		for len(s.guid) < n+1 {
			s.guid = append(s.guid, 0)
		}
	}
	s.heap.grow(n, s.hint.vars)
	for v := lits.Var(s.nVars + 1); int(v) <= n; v++ {
		s.heap.insert(v)
	}
	s.nVars = n
}

// room returns p, moved to an array of hint elements when it has no room
// for n and hint does.
func room[S ~[]T, T any](p S, n, hint int) S {
	if cap(p) >= n || hint < n {
		return p
	}
	q := make(S, len(p), hint)
	copy(q, p)
	return q
}

// extend returns p lengthened to n elements of fill: in place where it has
// room, in an array of hint elements where that holds n, by append
// otherwise.
func extend[S ~[]T, T any](p S, n, hint int, fill T) S {
	p = room(p, n, hint)
	for len(p) < n {
		p = append(p, fill)
	}
	return p
}

// AddClause attaches an original clause to a live solver and returns its
// proof ID (unique across originals and learnts, so a recorder that is
// told the ID can map it back to the clause: core.Recorder.AddLeaf). The clause is copied. Variables beyond the
// current count are added automatically. The solver first backtracks to
// decision level 0 (discarding any model left by a previous Sat call);
// implications of the new clause are enqueued immediately but only
// propagated by the next solve call.
func (s *Solver) AddClause(raw cnf.Clause) ClauseID {
	s.cancelUntil(0)
	if mv := int(raw.MaxVar()); mv > s.nVars {
		s.AddVars(mv)
	}
	id := s.nextID
	s.nextID++
	c := s.ca.push(id, 0, 0, raw)
	if s.ca.normalizeTail(c) {
		s.ca.pop(c)
		return id
	}
	s.nClauses++
	if m := float64(s.nClauses) * s.tune.maxLearntFrac; m > s.maxLearnts {
		s.maxLearnts = m
	}
	s.install(c)
	return id
}

// install bumps occurrence scores and registers an already-normalized
// clause in the watch lists, handling literals the level-0 trail has
// decided: watches are chosen among non-false literals, units are
// enqueued, and a fully falsified clause makes the solver unsatisfiable.
// The solver must be at decision level 0.
func (s *Solver) install(c cref) {
	k := s.ca.at(c)
	norm := k.lits()
	// Occurrence-count scoring, exactly as New seeds cha_score; raising a
	// key in the max-heap only needs an up-fix.
	for _, w := range norm {
		l := lits.Lit(w)
		s.chaScore[l.Index()]++
		if pos := s.heap.pos[l.Var()]; pos >= 0 {
			s.heap.up(int(pos))
		}
	}

	nonFalse, satisfied := 0, false
	for i, w := range norm {
		if v := s.vals[w]; v >= 0 {
			satisfied = satisfied || v > 0
			norm[i], norm[nonFalse] = norm[nonFalse], norm[i]
			nonFalse++
		}
	}
	switch {
	case nonFalse == 0:
		// Empty, or every literal false at level 0: unsatisfiable now.
		if s.status != Unsat {
			s.status = Unsat
			if len(norm) == 0 {
				s.finalAnts = []ClauseID{k.id()}
			} else {
				s.finalAnts = s.collectFinal(c)
			}
		}
	case nonFalse == 1 && !satisfied:
		if len(norm) >= 2 {
			s.attach(c)
		}
		s.uncheckedEnqueue(lits.Lit(norm[0]), c)
	case len(norm) >= 2:
		s.attach(c)
	}
}

// compact slides the live clauses down over the deleted ones, in order
// (arena.compact), and rewrites every cref the solver holds: the watch
// lists, the reasons of the trail and learnts. Nothing is reordered, so the
// search cannot observe it.
func (s *Solver) compact() {
	s.moves = s.ca.compact(s.moves)
	for _, ws := range s.watches {
		for i := range ws {
			ws[i].c = s.moved(ws[i].c)
		}
	}
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r != crefUndef {
			s.reason[l.Var()] = s.moved(r)
		}
	}
	for i, c := range s.learnts {
		s.learnts[i] = s.moved(c)
	}
	s.compactions++
}

// moved returns where compact has put the clause that was at c: down by the
// shift of the last move at or below it.
func (s *Solver) moved(c cref) cref {
	lo, hi := 0, len(s.moves) // the first move above c is in [lo, hi]
	for lo < hi {
		if mid := (lo + hi) / 2; s.moves[mid].from <= c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return c
	}
	return c - s.moves[lo-1].shift
}

// SetGuidance replaces the guidance scores and the dynamic-switch threshold
// for subsequent solve calls, rebuilding the decision heap. This is how an
// incremental BMC loop re-applies its refined ordering before each depth's
// SolveAssuming; nil guidance reverts to pure VSIDS. The slice is used
// as-is and padded if shorter than the variable count.
func (s *Solver) SetGuidance(g []float64, switchAfterDecisions int64) {
	if g != nil {
		for len(g) < s.nVars+1 {
			g = append(g, 0)
		}
	}
	s.guid = g
	s.opts.Guidance = g
	s.opts.SwitchAfterDecisions = switchAfterDecisions
	s.guidActive = g != nil
	s.heap.rebuild()
}

// SetStop replaces the cooperative-cancellation channel consulted by
// subsequent solve calls. Closed channels cannot be reopened, so a
// persistent racer gets a fresh channel installed before every race
// (portfolio.RaceLive does this); nil disables cancellation.
func (s *Solver) SetStop(stop <-chan struct{}) {
	s.opts.Stop = stop
	s.stopping = stop != nil
}

// attach registers the clause's first two literals in the watch lists: a
// clause watching literal w is filed under ¬w, the literal whose assignment
// falsifies w.
func (s *Solver) attach(c cref) {
	ls := s.ca.at(c).lits()
	l0, l1 := lits.Lit(ls[0]), lits.Lit(ls[1])
	s.watches[l0.Neg().Index()] = append(s.watches[l0.Neg().Index()], watcher{c, l1})
	s.watches[l1.Neg().Index()] = append(s.watches[l1.Neg().Index()], watcher{c, l0})
}

// detach removes the clause from both watch lists (used by reduceDB). The
// last watcher takes the removed one's place; list order is something the
// search observes, so this stays a swap.
func (s *Solver) detach(c cref) {
	ls := s.ca.at(c).lits()
	for _, w := range [2]lits.Lit{lits.Lit(ls[0]).Neg(), lits.Lit(ls[1]).Neg()} {
		ws := s.watches[w.Index()]
		for i := range ws {
			if ws[i].c == c {
				ws[i] = ws[len(ws)-1]
				s.watches[w.Index()] = ws[:len(ws)-1]
				break
			}
		}
	}
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// uncheckedEnqueue records the assignment making l true. from is the reason
// clause (crefUndef for decisions).
func (s *Solver) uncheckedEnqueue(l lits.Lit, from cref) {
	v := l.Var()
	s.vals[l.Index()], s.vals[l.Neg().Index()] = 1, -1
	s.reason[v] = from
	s.level[v] = int32(s.decisionLevel())
	s.trail = append(s.trail, l)
	if from != crefUndef {
		s.stats.Implications++
	}
}

// propagate runs Boolean constraint propagation until fixpoint; it returns
// the first falsified clause, or crefUndef.
func (s *Solver) propagate() cref {
	// Enqueueing writes through s.vals but never moves it, and propagation
	// adds no clause, so one load of each slice header serves the whole call.
	vals, pages := s.vals, s.ca.pages
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is true; scan clauses watching ¬p
		s.qhead++
		// attach files a clause under the negation of each literal it
		// watches, so p's list is the clauses watching ¬p.
		ws := s.watches[p.Index()]
		falseLit := uint32(p.Neg())
		i, j := 0, 0
		n := len(ws)
	nextWatcher:
		for i < n {
			w := ws[i]
			i++
			if vals[w.blocker] > 0 {
				ws[j] = w
				j++
				continue
			}
			c := w.c
			ls := clause(pages[c>>pageShift][c&pageMask:]).lits()
			// Ensure the false literal (¬p) is at position 1.
			if ls[0] == falseLit {
				ls[0], ls[1] = ls[1], ls[0]
			}
			first := lits.Lit(ls[0])
			if first != w.blocker && vals[first] > 0 {
				ws[j] = watcher{c, first}
				j++
				continue
			}
			// Look for a new literal to watch.
			for k := 2; k < len(ls); k++ {
				if vals[ls[k]] >= 0 {
					ls[1], ls[k] = ls[k], ls[1]
					nw := lits.Lit(ls[1]).Neg().Index()
					s.watches[nw] = append(s.watches[nw], watcher{c, first})
					continue nextWatcher
				}
			}
			// No new watch: clause is unit or falsified.
			ws[j] = watcher{c, first}
			j++
			if vals[first] < 0 {
				// Conflict: copy back remaining watchers and report.
				for i < n {
					ws[j] = ws[i]
					j++
					i++
				}
				s.watches[p.Index()] = ws[:j]
				s.qhead = len(s.trail)
				return c
			}
			s.uncheckedEnqueue(first, c)
		}
		s.watches[p.Index()] = ws[:j]
	}
	return crefUndef
}

// model materialises the truth table as the assignment a Sat answer hands
// out. Only then does anybody need one value per variable in a slice of
// their own; the search reads vals. A variable the search left unassigned
// (there is none when pickBranch has run dry) reads false.
func (s *Solver) model() lits.Assignment {
	m := lits.NewAssignment(s.nVars)
	for v := lits.Var(1); int(v) <= s.nVars; v++ {
		m[v] = lits.BoolToTri(s.vals[lits.PosLit(v).Index()] > 0)
	}
	return m
}

// newDecisionLevel opens a decision level.
func (s *Solver) newDecisionLevel() {
	s.trailLim = append(s.trailLim, len(s.trail))
	if dl := s.decisionLevel(); dl > s.stats.MaxLevel {
		s.stats.MaxLevel = dl
	}
}

// cancelUntil backtracks to the given decision level, unassigning variables
// and restoring them to the decision heap.
func (s *Solver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	limit := s.trailLim[level]
	for i := len(s.trail) - 1; i >= limit; i-- {
		l := s.trail[i]
		v := l.Var()
		s.vals[l.Index()], s.vals[l.Neg().Index()] = 0, 0
		s.reason[v] = crefUndef
		s.heap.insert(v)
	}
	s.trail = s.trail[:limit]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

// switchGuidance is the dynamic strategy's hand-over: the rest of the call
// orders decisions by cha_score alone.
func (s *Solver) switchGuidance() {
	s.guidActive = false
	s.stats.GuidanceSwitched = true
	s.stats.SwitchDecision = s.stats.Decisions
	s.heap.rebuild()
}

// better is the decision comparator over variables: guidance score first
// (while active), then the higher of the two cha_scores, then index. So the
// best variable holds the best literal under (guidance desc, cha_score
// desc, literal index asc): a lower variable's literals have lower indices.
func (s *Solver) better(a, b lits.Var) bool {
	if s.guidActive {
		ga, gb := s.guid[a], s.guid[b]
		if ga != gb {
			return ga > gb
		}
	}
	if ca, cb := s.chaKey(a), s.chaKey(b); ca != cb {
		return ca > cb
	}
	return a < b
}

// chaKey is v's key in better: the higher of its two cha_scores.
func (s *Solver) chaKey(v lits.Var) float64 {
	p := lits.PosLit(v).Index()
	return max(s.chaScore[p], s.chaScore[p+1])
}

// pickBranch pops the best unassigned variable off the decision heap and
// returns its polarity, Chaff's: the literal with the higher cha_score, the
// positive one on a tie. LitUndef when every variable is assigned.
func (s *Solver) pickBranch() lits.Lit {
	for !s.heap.empty() {
		v := s.heap.popMax()
		p := lits.PosLit(v)
		if s.vals[p.Index()] != 0 {
			continue
		}
		if s.chaScore[p.Neg().Index()] > s.chaScore[p.Index()] {
			return p.Neg()
		}
		return p
	}
	return lits.LitUndef
}

// analyze performs first-UIP conflict analysis, returning the learned
// clause (asserting literal first), the backtrack level, and — when proof
// recording is enabled — the antecedent clause IDs of the derivation. Both
// slices are the solver's per-conflict buffers, valid until the next call.
func (s *Solver) analyze(confl cref) (learnt []lits.Lit, btLevel int, ants []ClauseID) {
	learnt = append(s.learntBuf[:0], lits.LitUndef) // slot for the asserting literal
	ants = s.antsBuf[:0]
	pathC := 0
	p := lits.LitUndef
	idx := len(s.trail) - 1
	c := confl
	stamp := s.conflictStamp()

	for {
		k := s.ca.at(c)
		if s.recording {
			ants = append(ants, k.id())
		}
		k.touch(stamp)
		ls := k.lits()
		if p != lits.LitUndef {
			ls = ls[1:]
		}
		for _, w := range ls {
			q := lits.Lit(w)
			v := q.Var()
			if s.seen[v] {
				continue
			}
			if s.level[v] > 0 {
				s.seen[v] = true
				s.toClear = append(s.toClear, v)
				if int(s.level[v]) >= s.decisionLevel() {
					pathC++
				} else {
					learnt = append(learnt, q)
				}
			} else if s.recording {
				// Literals already false at level 0 are dropped from the
				// learned clause; their implication chains are still part
				// of the resolution proof.
				s.recordLevel0Chain(v, &ants)
			}
		}
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.Var()] = false
		pathC--
		if pathC == 0 {
			break
		}
		c = s.reason[p.Var()]
	}
	learnt[0] = p.Neg()

	learnt = s.minimize(learnt, &ants)

	// Compute the backtrack level: the second-highest level in the clause,
	// and move a literal of that level to position 1 for watching.
	if len(learnt) == 1 {
		btLevel = 0
	} else {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.level[learnt[1].Var()])
	}

	// Chaff VSIDS: count the learned clause's literals toward the next
	// rescore.
	for _, l := range learnt {
		s.newCount[l.Index()]++
	}

	for _, v := range s.toClear {
		s.seen[v] = false
	}
	s.toClear = s.toClear[:0]
	// Keep whatever the buffers grew to.
	s.learntBuf, s.antsBuf = learnt, ants
	return learnt, btLevel, ants
}

// minimize removes self-subsumed literals from the learned clause: literal
// l is redundant when its reason clause's remaining literals are all either
// already in the clause or false at level 0. Reasons used this way extend
// the antecedent set.
func (s *Solver) minimize(learnt []lits.Lit, ants *[]ClauseID) []lits.Lit {
	out := learnt[:1]
	for _, l := range learnt[1:] {
		r := s.reason[l.Var()]
		if r == crefUndef {
			out = append(out, l)
			continue
		}
		redundant := true
		k := s.ca.at(r)
		for _, w := range k.lits() {
			q := lits.Lit(w)
			if q.Var() == l.Var() {
				continue
			}
			if s.seen[q.Var()] {
				continue
			}
			if s.level[q.Var()] == 0 && s.vals[q.Index()] < 0 {
				if s.recording {
					s.recordLevel0Chain(q.Var(), ants)
				}
				continue
			}
			redundant = false
			break
		}
		if redundant {
			if s.recording {
				*ants = append(*ants, k.id())
			}
		} else {
			out = append(out, l)
		}
	}
	return out
}

// recordLevel0Chain appends to ants the reason IDs of v's level-0
// implication chain (transitively). It reuses the seen[] scratch (cleared
// by the caller via toClear) to avoid recording a chain twice within one
// derivation.
func (s *Solver) recordLevel0Chain(v lits.Var, ants *[]ClauseID) {
	stack := []lits.Var{v}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s.seen[v] {
			continue
		}
		s.seen[v] = true
		s.toClear = append(s.toClear, v)
		r := s.reason[v]
		if r == crefUndef {
			continue
		}
		k := s.ca.at(r)
		*ants = append(*ants, k.id())
		for _, w := range k.lits() {
			if q := lits.Lit(w); q.Var() != v && !s.seen[q.Var()] {
				stack = append(stack, q.Var())
			}
		}
	}
}

// collectFinal gathers the antecedents of a level-0 conflict on clause c:
// c itself plus the implication chains of all its literals.
func (s *Solver) collectFinal(c cref) []ClauseID {
	k := s.ca.at(c)
	ants := []ClauseID{k.id()}
	for _, w := range k.lits() {
		s.recordLevel0Chain(lits.Lit(w).Var(), &ants)
	}
	for _, v := range s.toClear {
		s.seen[v] = false
	}
	s.toClear = s.toClear[:0]
	return ants
}

// conflictStamp returns the lifetime conflict count — the recency stamp
// for clause-database reduction. Per-call counters reset between
// incremental solves, so stamps must come from the monotonic total or
// clauses learned in earlier calls would compare as recent forever.
func (s *Solver) conflictStamp() int64 {
	return s.total.Conflicts + s.stats.Conflicts
}

// addLearned copies the learned clause into the arena, notifies the
// recorder, and enqueues the asserting literal.
func (s *Solver) addLearned(learnt []lits.Lit, ants []ClauseID) {
	id := s.nextID
	s.nextID++
	c := s.ca.push(id, flagLearnt, s.conflictStamp(), learnt)
	s.stats.Learned++
	s.stats.LearnedLits += int64(len(learnt))
	if s.recording {
		s.opts.Recorder.RecordLearned(id, learnt, ants)
	}
	s.learnts = append(s.learnts, c)
	if len(learnt) >= 2 {
		s.attach(c)
	}
	s.uncheckedEnqueue(learnt[0], c)
}

// rescore applies Chaff's periodic VSIDS update
// (cha_score = cha_score/2 + new_lit_counts) and rebuilds the heap.
func (s *Solver) rescore() {
	for i := range s.chaScore {
		s.chaScore[i] = s.chaScore[i]/2 + float64(s.newCount[i])
		s.newCount[i] = 0
	}
	s.heap.rebuild()
}

// locked reports whether k, the clause at c, is the reason of its first
// literal's assignment (such clauses must not be deleted).
func (s *Solver) locked(c cref, k clause) bool {
	if k.size() == 0 {
		return false
	}
	first := lits.Lit(k[hdrWords])
	return s.vals[first.Index()] > 0 && s.reason[first.Var()] == c
}

// reduceDB deletes roughly half of the learned clauses, preferring the
// stalest (by last-use conflict stamp) and sparing binary, unit, and locked
// clauses. A deleted clause leaves the watch lists at once and the arena at
// the next compaction; its dependency record stays as long as a live
// clause's derivation can reach it — that is the point of the pseudo-ID
// CDG. When the deletions make reduceDB compact the arena, it names the
// surviving learned clauses to the proof recorder (Forget), which drops
// the records none of them reaches.
func (s *Solver) reduceDB() {
	if len(s.learnts) == 0 {
		return
	}
	// The median stamp, by sorting a copy of them all — a selection would
	// do, but this runs once per thousands of conflicts.
	stamps := s.stamps[:0]
	for _, c := range s.learnts {
		stamps = append(stamps, s.ca.at(c).act())
	}
	sortInt64(stamps)
	median := stamps[len(stamps)/2]
	s.stamps = stamps

	kept := s.learnts[:0]
	for _, c := range s.learnts {
		k := s.ca.at(c)
		if k.size() <= 2 || s.locked(c, k) || k.act() > median {
			kept = append(kept, c)
			continue
		}
		s.detach(c)
		s.ca.free(k)
		s.stats.Deleted++
	}
	s.learnts = kept
	s.maxLearnts *= s.tune.maxLearntInc
	if s.ca.wasted*s.tune.garbageDen >= s.ca.used() {
		s.compact()
		if s.recording {
			live := s.liveIDs[:0]
			for _, c := range s.learnts {
				live = append(live, s.ca.at(c).id())
			}
			s.liveIDs = live
			s.opts.Recorder.Forget(live)
		}
	}
}

// restartLimit returns the conflict budget of restart interval i.
func (s *Solver) restartLimit(i int) int64 {
	if s.tune.luby {
		return int64(s.tune.restartFirst) * luby(i)
	}
	lim := float64(s.tune.restartFirst)
	for k := 0; k < i; k++ {
		lim *= s.tune.restartInc
	}
	return int64(lim)
}

// luby returns the i-th element (0-based) of the Luby sequence
// 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,...
func luby(i int) int64 {
	// Find the finite subsequence containing index i.
	size, seq := int64(1), 0
	for size < int64(i)+1 {
		seq++
		size = 2*size + 1
	}
	x := int64(i)
	for size-1 != x {
		size = (size - 1) / 2
		seq--
		x %= size
	}
	return int64(1) << seq
}

// Solve runs the CDCL search to completion or budget exhaustion. It is
// SolveAssuming with no assumptions.
func (s *Solver) Solve() Result {
	return s.SolveAssuming(nil)
}

// SolveAssuming runs the search with the given literals assumed true: each
// assumption is enqueued as the pseudo-decision of its own decision level
// before ordinary branching. An Unsat result under assumptions is not
// sticky — the solver backtracks and remains reusable, and
// Result.FailedAssumptions reports an inconsistent subset of the
// assumptions (the final-conflict analysis over assumptions, the
// assumption-level analogue of an unsat core). Result.Stats covers only
// this call; Stats() accumulates across calls.
func (s *Solver) SolveAssuming(assumptions []lits.Lit) Result {
	start := time.Now()
	s.cancelUntil(0)
	s.assumps = assumptions
	if s.status != Unsat {
		s.status = Unknown
	}
	if s.guid != nil {
		// Re-arm the dynamic guidance switch: each call gets a fresh
		// decision count against Options.SwitchAfterDecisions.
		if !s.guidActive {
			s.guidActive = true
			s.heap.rebuild()
		}
	}
	s.restartIdx = 0
	s.sinceStopPoll = 0
	s.sinceDeadlinePoll = 0
	res := s.solve()
	res.Stats.SolveTime = time.Since(start)
	s.opts.Metrics.flush(res.Stats)
	if s.opts.Metrics != nil {
		s.opts.Metrics.flushDB(len(s.learnts), s.clauseBytes())
	}
	// Fold this call into the lifetime totals and reset the per-call
	// counters; enqueues made by New/AddClause before a call count toward
	// the call that propagates them.
	s.total.Add(res.Stats)
	s.stats = Stats{}
	s.assumps = nil
	return res
}

// clauseBytes is the clause database's footprint: the arena's words in use
// (headers, literals and not yet compacted garbage, originals and learnts
// alike) plus every watcher. It feeds the solver_clauses_bytes_est gauge
// and is only computed outside the search loop (once per solve call).
func (s *Solver) clauseBytes() int64 {
	n := int64(s.ca.used()) * 4
	for _, ws := range s.watches {
		n += int64(len(ws)) * 8
	}
	return n
}

// interrupted polls Options.Stop; it is only called when stopping is set
// and at most once per pollEvery search steps.
func (s *Solver) interrupted() bool {
	select {
	case <-s.opts.Stop:
		return true
	default:
		return false
	}
}

// pollStop increments the step counter and checks Stop once per
// pollEvery steps. It reports true when the solve must abort.
func (s *Solver) pollStop() bool {
	if !s.stopping {
		return false
	}
	s.sinceStopPoll++
	if s.sinceStopPoll < s.tune.pollEvery {
		return false
	}
	s.sinceStopPoll = 0
	return s.interrupted()
}

// pollDeadline checks Options.Deadline once per pollEvery search steps.
// It is called from both the conflict and the decision path, so
// propagation/decision-heavy solves with few conflicts cannot overshoot the
// deadline unboundedly; hasDeadline gates it so the common no-deadline path
// pays nothing.
func (s *Solver) pollDeadline() bool {
	if !s.hasDeadline {
		return false
	}
	s.sinceDeadlinePoll++
	if s.sinceDeadlinePoll < s.tune.pollEvery {
		return false
	}
	s.sinceDeadlinePoll = 0
	//bmclint:ignore hotpath rate-limited to one clock read per pollEvery search steps; this is the sanctioned deadline poll
	return time.Now().After(s.opts.Deadline)
}

// analyzeFinal computes the failed-assumption subset when assumption p is
// already false under the current trail (MiniSat's analyzeFinal): walking
// the implication graph of ¬p backward, every decision reached is an
// assumption that participates in the inconsistency. When proof recording
// is on it also collects the antecedent clause IDs of the derivation, so the
// recorder of a persistent solver can extract the unsat core over the
// clause database exactly as for a level-0 refutation.
func (s *Solver) analyzeFinal(p lits.Lit) (failed []lits.Lit, ants []ClauseID) {
	failed = []lits.Lit{p}
	if s.level[p.Var()] == 0 || s.decisionLevel() == 0 {
		// ¬p is a level-0 consequence of the clauses alone: p fails by
		// itself; the proof is its level-0 implication chain.
		if s.recording {
			s.recordLevel0Chain(p.Var(), &ants)
			for _, v := range s.toClear {
				s.seen[v] = false
			}
			s.toClear = s.toClear[:0]
		}
		return failed, ants
	}
	s.seen[p.Var()] = true
	for i := len(s.trail) - 1; i >= s.trailLim[0]; i-- {
		v := s.trail[i].Var()
		if !s.seen[v] {
			continue
		}
		s.seen[v] = false
		if r := s.reason[v]; r == crefUndef {
			// A decision above level 0 is an assumption (analyzeFinal only
			// runs before ordinary branching resumes); the trail holds ¬p,
			// never p itself, so no literal is double-counted.
			failed = append(failed, s.trail[i])
		} else {
			k := s.ca.at(r)
			if s.recording {
				//bmclint:ignore hotpath analyzeFinal runs once per UNSAT answer, not per decision; the antecedent list is unbounded and recording is off in racing runs
				ants = append(ants, k.id())
			}
			for _, w := range k.lits() {
				q := lits.Lit(w)
				if q.Var() == v {
					continue
				}
				if s.level[q.Var()] > 0 {
					s.seen[q.Var()] = true
				} else if s.recording {
					s.recordLevel0Chain(q.Var(), &ants)
				}
			}
		}
	}
	s.seen[p.Var()] = false
	for _, v := range s.toClear {
		s.seen[v] = false
	}
	s.toClear = s.toClear[:0]
	return failed, ants
}

func (s *Solver) solve() Result {
	if s.status == Unsat {
		if s.recording {
			s.opts.Recorder.RecordFinal(s.finalAnts)
		}
		return Result{Status: Unsat, Stats: s.stats}
	}
	if s.stopping && s.interrupted() {
		return Result{Status: Interrupted, Stats: s.stats}
	}

	s.conflictsLeft = s.restartLimit(s.restartIdx)

	for {
		confl := s.propagate()
		if confl != crefUndef {
			s.stats.Conflicts++
			s.sinceRescore++
			s.conflictsLeft--
			if s.decisionLevel() == 0 {
				// Kept for the calls that follow, which answer Unsat at
				// once and record the same final conflict.
				if s.recording {
					s.finalAnts = s.collectFinal(confl)
					s.opts.Recorder.RecordFinal(s.finalAnts)
				}
				s.status = Unsat
				return Result{Status: Unsat, Stats: s.stats}
			}
			learnt, btLevel, ants := s.analyze(confl)
			s.cancelUntil(btLevel)
			s.addLearned(learnt, ants)

			if s.sinceRescore >= s.tune.rescoreInterval {
				s.sinceRescore = 0
				s.rescore()
			}
			if s.opts.MaxConflicts > 0 && s.stats.Conflicts >= s.opts.MaxConflicts {
				return Result{Status: Unknown, Stats: s.stats}
			}
			if s.pollDeadline() {
				return Result{Status: Unknown, Stats: s.stats}
			}
			if s.pollStop() {
				return Result{Status: Interrupted, Stats: s.stats}
			}
			continue
		}

		// No conflict: consider restarting, reducing the database, then
		// branch.
		if s.conflictsLeft <= 0 {
			s.restartIdx++
			s.conflictsLeft = s.restartLimit(s.restartIdx)
			s.stats.Restarts++
			s.cancelUntil(0)
			continue
		}
		if float64(len(s.learnts)) >= s.maxLearnts {
			s.reduceDB()
		}

		// Dynamic guidance switch (paper §3.3): once the decision count
		// exceeds the threshold, fall back to pure VSIDS for good.
		if s.guidActive && s.opts.SwitchAfterDecisions > 0 &&
			s.stats.Decisions > s.opts.SwitchAfterDecisions {
			s.switchGuidance()
		}

		// Assumptions first: each occupies its own decision level ahead of
		// ordinary branching (restarts cancel to level 0, so they are
		// re-assumed here on every descent).
		if dl := s.decisionLevel(); dl < len(s.assumps) {
			p := s.assumps[dl]
			switch v := s.vals[p.Index()]; {
			case v > 0:
				// Already implied: open a dummy level so assumption i always
				// lives at decision level i+1.
				s.newDecisionLevel()
			case v < 0:
				failed, ants := s.analyzeFinal(p)
				if s.recording {
					s.opts.Recorder.RecordFinal(ants)
				}
				return Result{Status: Unsat, FailedAssumptions: failed, Stats: s.stats}
			default:
				s.newDecisionLevel()
				s.uncheckedEnqueue(p, crefUndef)
			}
			continue
		}

		l := s.pickBranch()
		if l == lits.LitUndef {
			s.status = Sat
			return Result{Status: Sat, Model: s.model(), Stats: s.stats}
		}
		s.stats.Decisions++
		if s.guidActive && s.guid[l.Var()] > 0 {
			s.stats.GuidedDecisions++
		}
		if s.tune.maxDecisions > 0 && s.stats.Decisions > s.tune.maxDecisions {
			return Result{Status: Unknown, Stats: s.stats}
		}
		if s.pollDeadline() {
			return Result{Status: Unknown, Stats: s.stats}
		}
		if s.pollStop() {
			return Result{Status: Interrupted, Stats: s.stats}
		}
		s.newDecisionLevel()
		s.uncheckedEnqueue(l, crefUndef)
	}
}

// sortInt64 sorts in place (insertion sort for small, else quicksort via
// recursion); kept dependency-free and deterministic.
func sortInt64(a []int64) {
	if len(a) < 24 {
		for i := 1; i < len(a); i++ {
			for j := i; j > 0 && a[j] < a[j-1]; j-- {
				a[j], a[j-1] = a[j-1], a[j]
			}
		}
		return
	}
	pivot := a[len(a)/2]
	left, right := 0, len(a)-1
	for left <= right {
		for a[left] < pivot {
			left++
		}
		for a[right] > pivot {
			right--
		}
		if left <= right {
			a[left], a[right] = a[right], a[left]
			left++
			right--
		}
	}
	sortInt64(a[:right+1])
	sortInt64(a[left:])
}

// VerifyModel checks that the model satisfies the formula; it is a test and
// debugging aid.
func VerifyModel(f *cnf.Formula, model lits.Assignment) error {
	for i, c := range f.Clauses {
		if c.Value(model) != lits.True {
			return fmt.Errorf("sat: clause %d %v not satisfied", i, c)
		}
	}
	return nil
}

package sat

import (
	"sort"

	"repro/internal/cnf"
	"repro/internal/lits"
)

// This file is the solver half of learned-clause exchange between racing
// solvers (internal/racer): ExportLearned hands out a solver's best recent
// learned clauses, ImportClause installs a foreign clause into a live
// solver. Both ends assume the solvers share the same original clause set,
// which makes every learned clause a logical consequence that is sound to
// inject anywhere — a CDCL solver's learned clauses never depend on its
// assumptions (assumptions enter the search as plain decisions, so
// conflict analysis resolves them into the learned clause rather than
// relying on them).

// NextClauseID returns the proof ID the next clause — original, learned,
// or imported — will receive. Exporters use it as the high-water mark
// between ExportLearned calls: clauses with IDs below the mark have been
// offered before.
func (s *Solver) NextClauseID() ClauseID { return s.nextID }

// ExportLearned returns copies of the live learned clauses with proof IDs
// at least since that qualify for sharing: length at most maxLen or
// LBD at most maxLBD (a criterion with a non-positive bound is disabled).
// When more than limit clauses qualify, the best — lowest LBD, then
// shortest, then oldest — are kept (limit <= 0 means no cap); the result
// is in ID order. Foreign clauses (installed by ImportClause) are skipped,
// so re-broadcasting an export cannot echo clauses around the bus.
//
// Must not be called while a Solve is in progress: the search mutates the
// literal order inside clauses (watch swaps). The racer pool exports only
// at depth boundaries, after every racer has come to rest.
func (s *Solver) ExportLearned(since ClauseID, maxLen, maxLBD, limit int) []cnf.Clause {
	ca := &s.ca
	var cands []cref
	for _, c := range s.learnts {
		k := ca.at(c)
		if k.id() < since || k.foreign() {
			continue
		}
		byLen := maxLen > 0 && k.size() <= maxLen
		byLBD := maxLBD > 0 && k.lbd() <= int32(maxLBD)
		if byLen || byLBD {
			cands = append(cands, c)
		}
	}
	if limit > 0 && len(cands) > limit {
		sort.Slice(cands, func(i, j int) bool {
			a, b := ca.at(cands[i]), ca.at(cands[j])
			if a.lbd() != b.lbd() {
				return a.lbd() < b.lbd()
			}
			if a.size() != b.size() {
				return a.size() < b.size()
			}
			return a.id() < b.id()
		})
		cands = cands[:limit]
	}
	sort.Slice(cands, func(i, j int) bool { return ca.at(cands[i]).id() < ca.at(cands[j]).id() })
	out := make([]cnf.Clause, len(cands))
	for i, c := range cands {
		ls := ca.at(c).lits()
		out[i] = make(cnf.Clause, len(ls))
		for k, w := range ls {
			out[i][k] = lits.Lit(w)
		}
	}
	return out
}

// ImportClause attaches a clause learned by another solver over the same
// original clause set — the import half of cross-racer clause sharing.
// The clause enters the learned database: it competes in clause-database
// reduction like locally learned clauses (with a fresh recency stamp, so
// one reduction cannot evict it unexamined) and is never re-exported.
// Tautologies and clauses already imported once (canonical-form dedup
// across all ImportClause calls) are dropped; the returned bool reports
// whether the clause was installed, and the ClauseID is meaningful only
// then. Like AddClause, importing backtracks to decision level 0, and a
// unit or falsified-at-level-0 clause takes effect immediately.
//
// The proof recorder is NOT notified, so the CDG treats the imported ID
// exactly like an original-clause leaf; callers that extract cores must
// register the literals under the returned ID (core.Recorder.AddLeaf; the
// racer pool does).
// Cores may then name imported clauses — acceptable for the bmc_score
// board, which is heuristic guidance, not a minimal proof.
//
// Must not be called while a Solve is in progress. The racer pool imports
// only at depth boundaries, while no solver is mid-search.
func (s *Solver) ImportClause(raw cnf.Clause) (ClauseID, bool) {
	// Normalise a tentative copy at the arena's tail; it stays only if it
	// is neither empty, a tautology nor a repeat.
	const flags = flagLearnt | flagForeign
	id := s.nextID
	c := s.ca.push(id, flags, s.conflictStamp(), raw)
	if s.ca.normalizeTail(c) || s.ca.at(c).size() == 0 {
		s.ca.pop(c)
		return 0, false
	}
	k := s.ca.at(c)
	norm := k.lits()
	key := clauseKey(norm)
	if _, dup := s.importSeen[key]; dup {
		s.ca.pop(c)
		return 0, false
	}
	s.importSeen[key] = struct{}{}

	s.cancelUntil(0)
	// Normalised literals are sorted, so the last one has the largest variable.
	if mv := int(lits.Lit(norm[len(norm)-1]).Var()); mv > s.nVars {
		s.AddVars(mv)
	}
	s.nextID++
	// The sender's LBD is stale in this solver's search; the length is the
	// pessimistic stand-in (LBD <= length always holds).
	k[hdrFlags] |= uint32(len(norm)) << lbdShift
	s.learnts = append(s.learnts, c)
	s.install(c)
	return id, true
}

// clauseKey hashes a normalized (sorted, deduplicated) clause with FNV-1a.
// A collision makes the dedup drop a distinct clause — a lost heuristic
// opportunity, never an unsoundness, so 64 bits are plenty.
func clauseKey(c []uint32) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, w := range c {
		x := uint64(w)
		for i := 0; i < 4; i++ {
			h ^= x & 0xff
			h *= prime64
			x >>= 8
		}
	}
	return h
}

package racer

// Lazy load. A persistent solver — a pool racer here, a worker's mirror in
// internal/remote — is not fed a frame when the frame is built but when the
// solver is about to search: with fewer worker slots than strategies, or
// with the races running on a fleet, most solvers of a pool never search,
// and a solver that holds nothing costs nothing. What makes this safe is
// that a solver's clause sequence is a function of the depth it is brought
// to, never of when it was loaded: frame 0, the bus clauses of boundary 0,
// frame 1, the bus clauses of boundary 1, … — the order an always-current
// solver sees them in. Clause IDs, watch-list order, the level-0 trail and
// the import dedup set, and with them the search, come out the same.

import (
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sat"
)

// Feed is the load state of one persistent solver: how many frames it
// holds, and the bus clauses that reached it at depth boundaries it has not
// caught up with. It is owned by one goroutine at a time — the depth loop
// between races, the solver's race goroutine during one.
type Feed struct {
	Solver *sat.Solver
	// Rec, when non-nil, is the solver's proof recorder: every frame
	// clause and every accepted import is registered as a leaf with its
	// literals, which is what resolves a core to variables.
	Rec *core.Recorder
	// Loaded, when non-nil, counts the frames CatchUp loads.
	Loaded *obs.Counter

	fed      int // frames 0..fed-1 are in the solver
	inbox    []parcel
	imported int64
}

// parcel is one batch of bus clauses, stamped with the depth boundary it
// arrived at: after frame k, before frame k+1.
type parcel struct {
	k       int
	from    string
	clauses []cnf.Clause
}

// Receipt reports what became of one delivered batch once its recipient
// took it in: how many clauses the solver installed and how many it
// dropped as duplicates (or tautologies) it already held.
type Receipt struct {
	From              string
	Accepted, Dropped int64
}

// Fed returns the number of frames the solver holds.
func (f *Feed) Fed() int { return f.fed }

// Imported returns how many bus clauses the solver has installed so far.
func (f *Feed) Imported() int64 { return f.imported }

// Deliver hands the solver a batch of bus clauses at depth boundary k. A
// solver that holds frame k imports them on the spot and the receipt is
// returned; one that is behind keeps them in its inbox, CatchUp imports
// them where they belong and reports the receipt then. Boundaries must not
// decrease from one call to the next, and the solver must be at rest.
func (f *Feed) Deliver(k int, from string, clauses []cnf.Clause) (Receipt, bool) {
	p := parcel{k: k, from: from, clauses: clauses}
	if f.fed > k {
		return f.take(p), true
	}
	f.inbox = append(f.inbox, p)
	return Receipt{}, false
}

// CatchUp brings the solver to depth k and returns it ready to search: the
// depth's guidance, then per missing depth the frame's variables and
// clauses (frame(d) must return the same clauses whenever it is asked) and
// the inbox batches of that boundary. The receipts are those of the batches
// it imported on the way. This is the only place a persistent solver is
// loaded; it runs on the goroutine that is about to solve.
//
// The guidance goes in first, so that it already covers every variable the
// frames add: the solver never pads it, and so never writes into the
// caller's array — which may be the one the caller reuses at every depth.
// Where the heap is rebuilt cannot move a decision, each decision being the
// argmax of a strict total order.
func (f *Feed) CatchUp(k int, frame func(d int) *cnf.Formula, guidance []float64, switchAfter int64) (*sat.Solver, []Receipt) {
	f.Solver.SetGuidance(guidance, switchAfter)
	var got []Receipt
	for ; f.fed <= k; f.fed++ {
		got = f.drain(f.fed, got)
		fr := frame(f.fed)
		f.Solver.AddVars(fr.NumVars)
		for _, cl := range fr.Clauses {
			id := f.Solver.AddClause(cl)
			if f.Rec != nil {
				f.Rec.AddLeaf(id, cl)
			}
		}
		f.Loaded.Inc()
	}
	got = f.drain(k+1, got)
	return f.Solver, got
}

// drain imports the inbox batches of boundaries below depth, oldest first.
func (f *Feed) drain(depth int, got []Receipt) []Receipt {
	n := 0
	for n < len(f.inbox) && f.inbox[n].k < depth {
		got = append(got, f.take(f.inbox[n]))
		n++
	}
	if n == len(f.inbox) {
		f.inbox = nil
	} else {
		f.inbox = f.inbox[n:]
	}
	return got
}

// take imports one batch. An import is a leaf of the recipient's CDG, like
// an original: core extraction resolves it to variables.
func (f *Feed) take(p parcel) Receipt {
	r := Receipt{From: p.from}
	for _, cl := range p.clauses {
		id, ok := f.Solver.ImportClause(cl)
		if !ok {
			r.Dropped++
			continue
		}
		r.Accepted++
		if f.Rec != nil {
			f.Rec.AddLeaf(id, cl)
		}
	}
	f.imported += r.Accepted
	return r
}

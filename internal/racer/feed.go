package racer

// Lazy load. A persistent solver — a pool racer here, a worker's mirror in
// internal/remote — is not fed a frame when the frame is built but when the
// solver is about to search: with fewer worker slots than strategies, or
// with the races running on a fleet, most solvers of a pool never search,
// and a solver that holds nothing costs nothing. What makes this safe is
// that a solver's clause sequence is a function of the depth it is brought
// to, never of when it was loaded: frame 0, frame 1, … — the order an
// always-current solver sees them in. Clause IDs, watch-list order and the
// level-0 trail, and with them the search, come out the same.

import (
	"sync"
	"time"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sat"
)

// DepthFrames is what the loads of one depth's race read frames from: the
// depth's own frame, encoded by the first solver that needs it and shared
// with every other, and older frames, encoded again for a solver that
// starts late. A depth that no solver here loads — its race ran on a fleet
// — encodes nothing. It is safe for the race's goroutines to use at once.
type DepthFrames struct {
	src   Source
	k     int
	once  sync.Once
	frame *cnf.Formula
	wall  time.Duration
}

// NewDepthFrames serves the loads of depth k of src.
func NewDepthFrames(src Source, k int) *DepthFrames {
	return &DepthFrames{src: src, k: k}
}

// Frame returns frame d; it is what Feed.CatchUp takes.
func (f *DepthFrames) Frame(d int) *cnf.Formula {
	if d != f.k {
		return f.src.Frame(d)
	}
	f.once.Do(func() {
		start := time.Now()
		f.frame = f.src.Frame(d)
		f.wall = time.Since(start)
	})
	return f.frame
}

// EncodeWall is the time the depth's own frame took to encode, zero if no
// solver loaded it. Read it once every goroutine that loaded has joined.
func (f *DepthFrames) EncodeWall() time.Duration { return f.wall }

// Feed is the load state of one persistent solver: how many frames it
// holds. It is owned by one goroutine at a time — the depth loop between
// races, the solver's race goroutine during one.
type Feed struct {
	Solver *sat.Solver
	// Rec, when non-nil, is the solver's proof recorder: every frame
	// clause is registered as a leaf with its literals, which is what
	// resolves a core to variables.
	Rec *core.Recorder
	// Loaded, when non-nil, counts the frames CatchUp loads.
	Loaded *obs.Counter

	fed int // frames 0..fed-1 are in the solver
}

// Fed returns the number of frames the solver holds.
func (f *Feed) Fed() int { return f.fed }

// CatchUp brings the solver to depth k and returns it ready to search: the
// depth's guidance, then per missing depth the frame's variables and
// clauses (frame(d) must return the same clauses whenever it is asked).
// This is the only place a persistent solver is loaded; it runs on the
// goroutine that is about to solve.
//
// The guidance goes in first, so that it already covers every variable the
// frames add: the solver never pads it, and so never writes into the
// caller's array — which may be the one the caller reuses at every depth.
// Where the heap is rebuilt cannot move a decision, each decision being the
// argmax of a strict total order.
func (f *Feed) CatchUp(k int, frame func(d int) *cnf.Formula, guidance []float64, switchAfter int64) *sat.Solver {
	f.Solver.SetGuidance(guidance, switchAfter)
	for ; f.fed <= k; f.fed++ {
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
	return f.Solver
}

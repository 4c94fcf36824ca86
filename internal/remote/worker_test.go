package remote

import (
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/lits"
	"repro/internal/racer"
	"repro/internal/sat"
	"repro/internal/unroll"
)

// TestMirrorLoadsWhenItRaces drives Worker.runRace the way a coordinator
// with one worker slot does: four attempts per request, Jobs 1, so the
// first attempt decides and the other three are skipped. A skipped mirror
// holds nothing: no solver, no expanded guidance. When a later request
// puts another strategy first, its mirror takes the whole history and
// every clause payload that was meant for it in one catch-up, and searches
// exactly like a reference solver this test fed frame by frame, payload by
// payload, all along.
func TestMirrorLoadsWhenItRaces(t *testing.T) {
	const lateAt = 4
	u, err := unroll.New(bench.ParityMixer(5, 3, 10), 0)
	if err != nil {
		t.Fatal(err)
	}
	d := u.Delta()
	src := racer.DeltaSource(d)
	names := []string{"vsids", "static", "dynamic", "timeaxis"}
	const late = 3 // timeaxis: guidance that needs no score board

	w := NewWorker(WorkerOptions{})
	sess := newConnSession()
	ref := sat.New(cnf.New(0), sat.Options{})

	for k := 0; k <= lateAt+1; k++ {
		frame := d.Frame(k)
		order := []int{0, 1, 2, 3}
		if k >= lateAt {
			order = []int{late, 0, 1, 2}
		}
		req := &RaceRequest{
			ID: uint64(k + 1), Query: "bmc", K: k, Live: true,
			Frames:  []WireFrame{{K: k, NumVars: frame.NumVars, Clauses: frame.Clauses}},
			Assumps: []lits.Lit{d.ActLit(k)},
			Jobs:    1, ExportMaxLen: 8, ExportMaxLBD: 4, ExportBudget: 256,
		}
		in := core.Layout{NumVars: src.NumVars(k), Frames: src.Frames(k), VarInfo: src.VarInfo}
		guidance, _ := core.OrderTimeAxis.Guidance(nil, in, 0, 0, nil)
		for _, i := range order {
			var opts WireOptions
			if i == late {
				opts.Guidance = compressGuidance(guidance)
			}
			req.Attempts = append(req.Attempts, WireAttempt{Name: names[i], Opts: opts})
		}
		// The payload that reached the worker since the last race: the
		// reference imports it after this depth's frame, as an always-fed
		// mirror would.
		sess.mu.Lock()
		var pending []cnf.Clause
		if q := sess.queries["bmc"]; q != nil {
			pending = q.pending
		}
		sess.mu.Unlock()
		ref.AddVars(frame.NumVars)
		for _, cl := range frame.Clauses {
			ref.AddClause(cl)
		}
		for _, cl := range pending {
			ref.ImportClause(cl)
		}

		resp := w.runRace(sess, req, nil)
		if resp.Err != "" {
			t.Fatalf("depth %d: %s", k, resp.Err)
		}
		if resp.Race.Winner != 0 || resp.Race.Result.Status != sat.Unsat {
			t.Fatalf("depth %d: want the first attempt to decide Unsat, got winner %d, %v", k, resp.Race.Winner, resp.Race.Result.Status)
		}
		mirrors := sess.queries["bmc"].mirrors
		for i, n := range names {
			raced := i == 0 || (i == late && k >= lateAt)
			if m := mirrors[n]; raced != (m.feed.Solver != nil) || (!raced && m.guidance != nil) {
				t.Fatalf("depth %d: mirror %s holds a solver (%v) or guidance (%d scores); raced so far: %v",
					k, n, m.feed.Solver != nil, len(m.guidance), raced)
			}
		}
		if k >= lateAt {
			if !slices.Equal(mirrors[names[late]].guidance, guidance) {
				t.Fatalf("depth %d: the late mirror's expanded guidance is not the time-axis guidance it was sent", k)
			}
			ref.SetGuidance(guidance, 0)
			want := ref.SolveAssuming(req.Assumps)
			got := resp.Race.Outcomes[0]
			got.Stats.SolveTime, want.Stats.SolveTime = 0, 0
			if got.Status != want.Status || got.Stats != want.Stats {
				t.Fatalf("depth %d: late mirror %v %+v, eagerly fed reference %v %+v", k, got.Status, got.Stats, want.Status, want.Stats)
			}
		}
		// What this race's mirrors learned comes back as the next payload.
		if len(resp.Exported) > 0 {
			sess.enqueueClauses(&ClausePayload{Query: "bmc", K: k, From: "test", Clauses: resp.Exported})
		}
	}
	if fed := sess.queries["bmc"].mirrors[names[late]].feed.Fed(); fed != lateAt+2 {
		t.Errorf("late mirror holds %d frames, want %d", fed, lateAt+2)
	}
	if n := sess.queries["bmc"].mirrors[names[late]].feed.Imported(); n == 0 {
		t.Error("the late mirror imported nothing: the interleaving of frames and payloads went untested")
	}
}

package remote

import (
	"math"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

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
// puts another strategy first, its mirror loads every frame it missed —
// encoded by the worker from the circuit the session was sent — in one
// catch-up, and searches exactly like a reference solver this test fed
// frame by frame all along.
func TestMirrorLoadsWhenItRaces(t *testing.T) {
	const lateAt = 4
	c := bench.ParityMixer(5, 3, 10)
	u, err := unroll.New(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := u.Delta()
	src := racer.DeltaSource(d)
	names := []string{"vsids", "static", "dynamic", "timeaxis"}
	const late = 3 // timeaxis: guidance that needs no score board

	w := NewWorker(WorkerOptions{})
	sess := newConnSession()
	if err := sess.install(&WireCircuit{Query: "bmc", Circuit: c}); err != nil {
		t.Fatal(err)
	}
	ref := sat.New(cnf.New(0), sat.Options{})

	for k := 0; k <= lateAt+1; k++ {
		frame := d.Frame(k)
		order := []int{0, 1, 2, 3}
		if k >= lateAt {
			order = []int{late, 0, 1, 2}
		}
		req := &RaceRequest{
			ID: uint64(k + 1), Query: "bmc", K: k, Live: true,
			Assumps: []lits.Lit{d.ActLit(k)},
			Jobs:    1,
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
		ref.AddVars(frame.NumVars)
		for _, cl := range frame.Clauses {
			ref.AddClause(cl)
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
	}
	if fed := sess.queries["bmc"].mirrors[names[late]].feed.Fed(); fed != lateAt+2 {
		t.Errorf("late mirror holds %d frames, want %d", fed, lateAt+2)
	}
}

// TestWorkerBoundsRequests: a request the worker cannot serve is answered
// with RaceResponse.Err — which the coordinator turns into a local
// fallback — and never panics or unrolls without bound: a depth whose
// instance is past unroll's bound on an instance's size (2^32 variables,
// clauses and literals together), live or cold, on either query; a query
// the connection was never sent; and a race that arrives before its
// query's circuit, which the same connection then serves once the circuit
// is in.
func TestWorkerBoundsRequests(t *testing.T) {
	c := bench.ParityMixer(5, 3, 10)
	u, err := unroll.New(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(WorkerOptions{})
	race := func(sess *connSession, query string, k int, live bool) *RaceResponse {
		return w.runRace(sess, &RaceRequest{ID: 1, Query: query, K: k, Live: live, Jobs: 1, Attempts: []WireAttempt{{Name: "vsids"}}}, nil)
	}

	t.Run("past-bound", func(t *testing.T) {
		sess := newConnSession()
		sizes := map[string]func(k int) (int, int, int){
			"bmc/live": u.Delta().Size, "bmc/cold": u.Instance().Size,
			"step/live": u.StepDelta().Size, "step/cold": u.StepInstance().Size,
		}
		for _, query := range []string{"bmc", "step"} {
			if err := sess.install(&WireCircuit{Query: query, Step: query == "step", Circuit: c}); err != nil {
				t.Fatal(err)
			}
			for _, live := range []bool{true, false} {
				name := query + "/cold"
				if live {
					name = query + "/live"
				}
				// The first depth past the bound.
				past := 1
				for {
					vars, clauses, literals := sizes[name](past)
					if vars+clauses+literals > 1<<32 {
						break
					}
					past *= 2
				}
				for _, k := range []int{past, 1<<32 + 1, math.MaxInt, -1} {
					if resp := race(sess, query, k, live); !strings.Contains(resp.Err, "past the bound") {
						t.Errorf("%s at depth %d: answered %q", name, k, resp.Err)
					}
				}
				// The query is not left claimed.
				if resp := race(sess, query, 0, live); resp.Err != "" || !resp.Race.Result.Status.Decided() {
					t.Errorf("%s at depth 0 after the rejections: %q, %v", name, resp.Err, resp.Race.Result.Status)
				}
			}
		}
	})

	t.Run("unknown-query", func(t *testing.T) {
		sess := newConnSession()
		if err := sess.install(&WireCircuit{Query: "bmc", Circuit: c}); err != nil {
			t.Fatal(err)
		}
		for _, live := range []bool{true, false} {
			if resp := race(sess, "base", 0, live); !strings.Contains(resp.Err, "does not hold") {
				t.Errorf("live %v: a race for a query never sent answered %q", live, resp.Err)
			}
		}
	})

	t.Run("before-circuit", func(t *testing.T) {
		coord, worker := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			w.ServeConn(worker)
		}()
		fc := NewConn(coord, 0)
		defer func() {
			fc.Close()
			<-done
		}()
		roundTrip := func(m *Message) *Message {
			t.Helper()
			if err := fc.Send(m, time.Second); err != nil {
				t.Fatal(err)
			}
			if m.Kind == MsgCircuit {
				return nil
			}
			got, err := fc.Recv(5 * time.Second)
			if err != nil {
				t.Fatal(err)
			}
			return got
		}
		roundTrip(&Message{Kind: MsgHello, Hello: &Hello{Version: ProtocolVersion, Name: "test"}})
		req := &RaceRequest{ID: 1, Query: "bmc", Live: true, Jobs: 1, Attempts: []WireAttempt{{Name: "vsids"}}}
		if got := roundTrip(&Message{Kind: MsgRace, Race: req}); got.Result == nil || !strings.Contains(got.Result.Err, "does not hold") {
			t.Fatalf("a race before its circuit: answered %+v", got.Result)
		}
		roundTrip(&Message{Kind: MsgCircuit, Circuit: &WireCircuit{Query: "bmc", Circuit: c}})
		req.ID = 2
		if got := roundTrip(&Message{Kind: MsgRace, Race: req}); got.Result == nil || got.Result.Err != "" || !got.Result.Race.Result.Status.Decided() {
			t.Fatalf("the race once its circuit is in: answered %+v", got.Result)
		}
	})
}

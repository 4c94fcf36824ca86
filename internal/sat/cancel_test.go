package sat

import (
	"testing"
	"time"

	"repro/internal/lits"
)

// stubRecorder counts proof events; used to check that a cancelled solve
// leaves the recorder in a consistent state (no panic, no final conflict).
type stubRecorder struct {
	learned int
	final   bool
}

func (r *stubRecorder) RecordLearned(ClauseID, []lits.Lit, []ClauseID) { r.learned++ }
func (r *stubRecorder) RecordFinal([]ClauseID)                         { r.final = true }
func (r *stubRecorder) Forget([]ClauseID)                              {}

// TestCancelMidSearch starts a hard UNSAT instance (PHP(11,10) takes far
// longer than the test budget), cancels it mid-search, and checks that the
// solver returns promptly with status Interrupted and that the proof
// recorder hooks saw a consistent event stream.
func TestCancelMidSearch(t *testing.T) {
	stop := make(chan struct{})
	rec := &stubRecorder{}
	opts := Options{}
	opts.Stop = stop
	opts.Recorder = rec

	s := New(pigeonhole(11, 10), opts)
	type outcome struct {
		res  Result
		wall time.Duration
	}
	done := make(chan outcome, 1)
	start := time.Now()
	go func() {
		res := s.Solve()
		done <- outcome{res, time.Since(start)}
	}()

	time.Sleep(20 * time.Millisecond)
	close(stop)

	select {
	case o := <-done:
		if o.res.Status != Interrupted {
			t.Fatalf("status = %v, want Interrupted", o.res.Status)
		}
		if o.res.Stats.Conflicts == 0 {
			t.Fatalf("expected the solver to have searched before cancellation")
		}
		if rec.final {
			t.Fatalf("recorder saw RecordFinal on an interrupted solve")
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("solver did not return within 5s of cancellation")
	}
}

// TestCancelBeforeSolve checks that a solve whose Stop channel is already
// closed returns Interrupted without searching.
func TestCancelBeforeSolve(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	opts := Options{}
	opts.Stop = stop
	res := New(pigeonhole(8, 7), opts).Solve()
	if res.Status != Interrupted {
		t.Fatalf("status = %v, want Interrupted", res.Status)
	}
	if res.Stats.Decisions != 0 {
		t.Fatalf("pre-cancelled solve made %d decisions", res.Stats.Decisions)
	}
}

// TestCancelNilStopUnaffected checks the default path: with no Stop
// channel the solver behaves exactly as before (completes with a verdict).
func TestCancelNilStopUnaffected(t *testing.T) {
	res := New(pigeonhole(5, 4), Options{}).Solve()
	if res.Status != Unsat {
		t.Fatalf("status = %v, want Unsat", res.Status)
	}
}

// TestInterruptedStatusIsNotDecided pins the Decided helper.
func TestInterruptedStatusIsNotDecided(t *testing.T) {
	if Interrupted.Decided() || Unknown.Decided() {
		t.Fatalf("Interrupted/Unknown must not be decided")
	}
	if !Sat.Decided() || !Unsat.Decided() {
		t.Fatalf("Sat/Unsat must be decided")
	}
}

// TestCancelAfterVerdictHarmless: closing Stop after the solve finished
// must not disturb the stored result or panic.
func TestCancelAfterVerdictHarmless(t *testing.T) {
	stop := make(chan struct{})
	opts := Options{}
	opts.Stop = stop
	s := New(pigeonhole(4, 4), opts)
	res := s.Solve()
	close(stop)
	if res.Status != Sat {
		t.Fatalf("status = %v, want Sat", res.Status)
	}
	if res.Model.Value(lits.Var(1)) == lits.Undef {
		t.Fatalf("model incomplete")
	}
}

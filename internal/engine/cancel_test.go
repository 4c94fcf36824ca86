package engine_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
)

// cancelConfigs covers every engine×incremental×portfolio shape whose
// cancellation path differs. Each names the suite model that keeps that
// engine busy for seconds: a holding parity mixer at a deep bound for
// BMC, the deep counter (k-induction needs ~3s to reach its k=24
// counter-example) for the induction engines.
func cancelConfigs() []struct {
	name  string
	model string
	opts  []engine.Option
} {
	return []struct {
		name  string
		model string
		opts  []engine.Option
	}{
		{"bmc-scratch", "mix_w8", nil},
		{"bmc-incremental", "mix_w8", []engine.Option{engine.WithIncremental()}},
		{"bmc-portfolio", "mix_w8", []engine.Option{engine.WithPortfolio(nil, 0)}},
		{"bmc-warm", "mix_w8", []engine.Option{engine.WithPortfolio(nil, 0), engine.WithIncremental()}},
		{"kind-sequential", "cnt_w6_t24", []engine.Option{engine.WithEngine(engine.KInduction)}},
		{"kind-portfolio", "cnt_w6_t24", []engine.Option{engine.WithEngine(engine.KInduction), engine.WithPortfolio(nil, 0)}},
		{"kind-warm", "cnt_w6_t24", []engine.Option{engine.WithEngine(engine.KInduction), engine.WithPortfolio(nil, 0),
			engine.WithIncremental()}},
	}
}

// TestCheckContextCancellation: cancelling a running check mid-race must
// return promptly — bounded by the solver's cooperative stop poll, not
// by the remaining search — with Verdict Unknown, and must not leak the
// race's goroutines. Run under -race in CI, this also asserts the
// cancellation paths are data-race-free.
func TestCheckContextCancellation(t *testing.T) {
	for _, tc := range cancelConfigs() {
		t.Run(tc.name, func(t *testing.T) {
			m, ok := bench.ByName(tc.model)
			if !ok {
				t.Fatalf("model %s missing", tc.model)
			}
			before := runtime.NumGoroutine()
			opts := append([]engine.Option{engine.WithBudgets(60, 0)}, tc.opts...)
			sess, err := engine.New(m.Build(), 0, opts...)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			type outcome struct {
				res *engine.Result
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				res, err := sess.Check(ctx)
				done <- outcome{res, err}
			}()
			// Let the check get into real work before pulling the plug.
			time.Sleep(100 * time.Millisecond)
			cancel()
			select {
			case o := <-done:
				if o.err != nil {
					t.Fatalf("Check returned error on cancellation: %v", o.err)
				}
				if o.res.Verdict != engine.Unknown {
					t.Errorf("verdict %v after cancellation, want unknown", o.res.Verdict)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Check did not return within 5s of cancellation")
			}
			// Goroutine accounting is eventually consistent (worker
			// goroutines observe the cancel at their next poll); allow a
			// grace period before declaring a leak.
			deadline := time.Now().Add(5 * time.Second)
			for {
				if runtime.NumGoroutine() <= before {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("goroutines leaked after cancellation: %d before, %d after",
						before, runtime.NumGoroutine())
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// TestCheckContextDeadline: an already-expired deadline returns Unknown
// immediately without touching a solver.
func TestCheckContextDeadline(t *testing.T) {
	for _, tc := range cancelConfigs() {
		t.Run(tc.name, func(t *testing.T) {
			m, ok := bench.ByName(tc.model)
			if !ok {
				t.Fatalf("model %s missing", tc.model)
			}
			opts := append([]engine.Option{engine.WithBudgets(20, 0)}, tc.opts...)
			sess, err := engine.New(m.Build(), 0, opts...)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
			defer cancel()
			start := time.Now()
			res, err := sess.Check(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if res.Verdict != engine.Unknown {
				t.Errorf("verdict %v under an expired deadline, want unknown", res.Verdict)
			}
			if elapsed := time.Since(start); elapsed > time.Second {
				t.Errorf("expired-deadline check took %v, want immediate return", elapsed)
			}
		})
	}
}

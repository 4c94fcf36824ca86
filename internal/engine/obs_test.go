package engine_test

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/portfolio"
	"repro/internal/remote"
)

// TestProgressEventsUnderCancellation cancels every engine shape mid-race
// with a progress consumer, a metrics registry, and a tracer attached:
// every delivered event must be well-formed, no event may arrive after
// Check returns (the consumer contract — events come synchronously from
// the depth loop), and the trace must still be valid JSON with balanced
// spans. Run under -race in CI, this also asserts the observability
// plumbing is data-race-free across all cancellation paths.
func TestProgressEventsUnderCancellation(t *testing.T) {
	for _, tc := range cancelConfigs() {
		t.Run(tc.name, func(t *testing.T) {
			m, ok := bench.ByName(tc.model)
			if !ok {
				t.Fatalf("model %s missing", tc.model)
			}
			var mu sync.Mutex
			var events []engine.Event
			returned := false
			progress := func(e engine.Event) {
				mu.Lock()
				defer mu.Unlock()
				if returned {
					t.Errorf("event kind=%d query=%s k=%d delivered after Check returned", e.Kind, e.Query, e.K)
					return
				}
				events = append(events, e)
			}
			reg := obs.NewRegistry()
			tr := obs.NewTracer()
			opts := append([]engine.Option{
				engine.WithBudgets(60, 0),
				engine.WithProgress(progress),
				engine.WithMetrics(reg),
				engine.WithTracer(tr),
			}, tc.opts...)
			sess, err := engine.New(m.Build(), 0, opts...)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() {
				_, err := sess.Check(ctx)
				done <- err
			}()
			time.Sleep(150 * time.Millisecond)
			cancel()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("Check returned error on cancellation: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Check did not return within 5s of cancellation")
			}
			mu.Lock()
			returned = true
			mu.Unlock()
			// Catch any straggler deliveries racing the return.
			time.Sleep(100 * time.Millisecond)

			mu.Lock()
			defer mu.Unlock()
			started := map[[2]interface{}]bool{}
			for _, e := range events {
				if e.Query != engine.QueryBMC && e.Query != engine.QueryBase && e.Query != engine.QueryStep {
					t.Fatalf("event with unknown query %q", e.Query)
				}
				if e.K < 0 || e.K > 60 {
					t.Fatalf("event with out-of-range depth %d", e.K)
				}
				key := [2]interface{}{e.Query, e.K}
				switch e.Kind {
				case engine.DepthStarted:
					started[key] = true
				case engine.DepthFinished:
					if !started[key] {
						t.Errorf("DepthFinished %s/%d without a DepthStarted", e.Query, e.K)
					}
					if e.Depth.K != e.K {
						t.Errorf("DepthFinished %s/%d carries stats for depth %d", e.Query, e.K, e.Depth.K)
					}
				case engine.RaceFinished:
					if !started[key] {
						t.Errorf("RaceFinished %s/%d without a DepthStarted", e.Query, e.K)
					}
					if len(e.Racers) == 0 {
						t.Errorf("RaceFinished %s/%d with no racer rows", e.Query, e.K)
					}
					winners := 0
					for _, r := range e.Racers {
						if r.Name == "" {
							t.Errorf("RaceFinished %s/%d has an unnamed racer", e.Query, e.K)
						}
						if r.Winner {
							winners++
							if r.Skipped {
								t.Errorf("RaceFinished %s/%d: winner %s marked skipped", e.Query, e.K, r.Name)
							}
						}
					}
					if winners > 1 {
						t.Errorf("RaceFinished %s/%d has %d winners", e.Query, e.K, winners)
					}
				case engine.ExchangeFlushed:
					if len(e.Exchange) == 0 {
						t.Errorf("ExchangeFlushed %s/%d with no rows (idle rounds must not emit)", e.Query, e.K)
					}
					for _, r := range e.Exchange {
						if r.Strategy == "" {
							t.Errorf("ExchangeFlushed %s/%d has an unnamed strategy row", e.Query, e.K)
						}
					}
				default:
					t.Fatalf("unknown event kind %d", e.Kind)
				}
			}

			// The trace must be valid Chrome-trace JSON even on a
			// cancelled check (the root span is closed on every path).
			var buf bytes.Buffer
			if err := tr.WriteJSON(&buf); err != nil {
				t.Fatalf("WriteJSON: %v", err)
			}
			var parsed struct {
				TraceEvents []struct {
					Ph   string `json:"ph"`
					Name string `json:"name"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
				t.Fatalf("trace is not valid JSON: %v", err)
			}
			foundRoot := false
			for _, ev := range parsed.TraceEvents {
				if ev.Ph == "X" && ev.Name == "check" {
					foundRoot = true
				}
			}
			if !foundRoot {
				t.Errorf("trace missing the closed root check span")
			}
		})
	}
}

// TestIdleRacersStayEmpty: a pool solver is loaded when it is about to
// search, and racer_frames_loaded_total says which were. Four strategies
// share one worker slot and the first decides every depth, so it alone
// holds the seven frames; over a loopback fleet the races run on the
// worker's mirrors and, with no fallback, the coordinator's pool holds
// nothing at all.
func TestIdleRacersStayEmpty(t *testing.T) {
	m, ok := bench.ByName("mix_w5")
	if !ok {
		t.Fatal("model mix_w5 missing")
	}
	const depth = 6
	names := portfolio.DefaultSet().Names()
	series := func(reg *obs.Registry) (loaded, clauseBytes []int64) {
		snap := reg.Snapshot()
		for _, n := range names {
			loaded = append(loaded, snap.Counters[obs.Name("racer_frames_loaded_total", "query", "bmc", "strategy", n)])
			clauseBytes = append(clauseBytes, snap.Gauges[obs.Name("solver_clauses_bytes", "query", "bmc", "strategy", n)])
		}
		return loaded, clauseBytes
	}
	warm := []engine.Option{
		engine.WithBudgets(depth, 0), engine.WithPortfolio(nil, 1), engine.WithIncremental(),
	}

	reg := obs.NewRegistry()
	res := checkModel(t, m, append(warm, engine.WithMetrics(reg))...)
	if res.Verdict != engine.Holds || res.K != depth {
		t.Fatalf("local: %v@%d, want Holds@%d", res.Verdict, res.K, depth)
	}
	loaded, clauseBytes := series(reg)
	for i, n := range names {
		switch {
		case i == 0 && (loaded[i] != depth+1 || clauseBytes[i] == 0):
			t.Errorf("%s raced every depth: %d frames loaded, %d clause bytes; want %d frames and a non-empty database",
				n, loaded[i], clauseBytes[i], depth+1)
		case i > 0 && (loaded[i] != 0 || clauseBytes[i] != 0):
			t.Errorf("%s never raced, yet it loaded %d frames and holds %d clause bytes", n, loaded[i], clauseBytes[i])
		}
	}

	reg = obs.NewRegistry()
	ex, err := remote.NewLoopback(1, remote.Options{Metrics: reg}, remote.WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	res = checkModel(t, m, append(warm, engine.WithMetrics(reg), engine.WithExecutor(ex))...)
	if res.Verdict != engine.Holds || res.K != depth {
		t.Fatalf("loopback: %v@%d, want Holds@%d", res.Verdict, res.K, depth)
	}
	snap := reg.Snapshot()
	if snap.Counters["remote_races_total"] != depth+1 || snap.Counters["remote_fallback_races_total"] != 0 {
		t.Fatalf("loopback: %d remote races and %d fallbacks, want %d and 0",
			snap.Counters["remote_races_total"], snap.Counters["remote_fallback_races_total"], depth+1)
	}
	loaded, clauseBytes = series(reg)
	for i, n := range names {
		if loaded[i] != 0 || clauseBytes[i] != 0 {
			t.Errorf("loopback: the coordinator's %s loaded %d frames and holds %d clause bytes under a healthy fleet",
				n, loaded[i], clauseBytes[i])
		}
	}
}

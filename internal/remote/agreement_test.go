package remote

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/bruteforce"
	"repro/internal/circuit"
	"repro/internal/engine"
)

// Agreement circuits are small enough to enumerate every state.
const (
	agreementMaxLatches = 6
	agreementMaxInputs  = 3
	agreementMaxDepth   = 8
)

// byteReader hands out fuzz bytes as small numbers, zeros once they run out.
type byteReader []byte

func (r *byteReader) intn(n int) int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b) % n
}

// agreementCircuit decodes fuzz bytes into a small sequential circuit. The
// first byte picks one of the suite's generators, with parameters in the
// ranges the benchmark's probes draw from, or a random circuit whose
// latches, next states, gates and property the rest of the bytes spell out
// (constants included, so constant next states and constant properties
// occur). It returns nil for a circuit past the size limits.
func agreementCircuit(data []byte) *circuit.Circuit {
	r := byteReader(data)
	var c *circuit.Circuit
	switch r.intn(8) {
	case 0:
		w := 3 + r.intn(2)
		c = bench.Counter(w, uint64(2+r.intn(1<<w-2)), 0, 0)
	case 1:
		c = bench.Lock(3+r.intn(5), 2+r.intn(2), 0, 0)
	case 2:
		w := 3 + r.intn(4)
		c = bench.ShiftWindow(w, w == 3 && r.intn(2) == 1, 0, 0) // the passing variant has two windows
	case 3:
		w := 3 + r.intn(2)
		c = bench.GatedCounter(w, uint64(3+r.intn(1<<w-3)), 0, 0)
	case 4:
		c = bench.Twin(2+r.intn(2), 0, 0)
	case 5:
		w := 3 + r.intn(2)
		m := 3 + r.intn(1<<w-4)
		c = bench.OffsetCounter(w, uint64(m), uint64(m+r.intn(1<<w-m)))
	default:
		c = circuit.New("random")
		pool := []circuit.Signal{circuit.False}
		for i := 1 + r.intn(agreementMaxInputs); i > 0; i-- {
			pool = append(pool, c.Input("in"))
		}
		latches := make([]circuit.Signal, 1+r.intn(agreementMaxLatches))
		for i := range latches {
			latches[i] = c.Latch("l", r.intn(2) == 1)
			pool = append(pool, latches[i])
		}
		pick := func() circuit.Signal {
			s := pool[r.intn(len(pool))]
			if r.intn(2) == 1 {
				s = s.Not()
			}
			return s
		}
		for g := r.intn(12); g > 0; g-- {
			switch r.intn(3) {
			case 0:
				pool = append(pool, c.And(pick(), pick()))
			case 1:
				pool = append(pool, c.Xor(pick(), pick()))
			default:
				pool = append(pool, c.Mux(pick(), pick(), pick()))
			}
		}
		for _, l := range latches {
			c.SetNext(l, pick())
		}
		c.AddProperty("bad", pick())
	}
	if c.NumLatches() > agreementMaxLatches || c.NumInputs() > agreementMaxInputs {
		return nil
	}
	return c
}

// FuzzEngineAgreement: every engine shape that races through the executor,
// run in process and over a one-worker loopback fleet, answers what
// explicit-state reachability (bruteforce.Reach, which shares nothing with
// the unroller or the solver) says about a random small circuit. A
// counter-example is found at exactly the first depth a bad state is
// reachable; a BMC check that finds none holds to its bound; k-induction
// proves only a property whose reachable set closes without a bad state,
// and is otherwise undecided at its bound. The scratch shapes grow their
// storage across every depth of both queries on the way. The in-process
// run certifies the proof and core of every UNSAT depth (WithCertify).
// A k-induction shape runs in process a second time, uncertified, which
// is the one run whose step lane records no proof: it must search exactly
// as the certified one wherever the search repeats (searchCounts).
func FuzzEngineAgreement(f *testing.F) {
	for family := byte(0); family < 6; family++ { // the suite's generators
		f.Add([]byte{family, 1, 2, 3}, uint8(agreementMaxDepth))
		f.Add([]byte{family, 0, 1, 5}, uint8(5))
	}
	f.Add([]byte{6, 2, 5, 1, 0, 1, 1, 0, 9, 4, 3, 8, 2, 6, 1, 7, 0, 3, 5, 2, 4, 1, 6}, uint8(agreementMaxDepth))
	f.Add([]byte{7, 0, 0, 1, 3, 0, 2, 1, 2, 0, 1}, uint8(3))
	// A constantly violated property: the warm step pool is given the empty
	// clause, which must certify as a leaf of its own.
	f.Add([]byte("\x06\x01\x00\x01\x01\x05\t\x04\x80\xff\xff\xff\x01\a\x00\x03\x05\x02\x04\x01\x04"), uint8('\b'))
	f.Fuzz(func(t *testing.T, data []byte, depth uint8) {
		c := agreementCircuit(data)
		if c == nil {
			t.Skip("circuit past the size limits")
		}
		maxDepth := int(depth % (agreementMaxDepth + 1))
		firstBad, closed, err := bruteforce.Reach(c, 0, 1<<c.NumLatches())
		if err != nil {
			t.Fatal(err)
		}
		badInBound := firstBad >= 0 && firstBad <= maxDepth
		for _, shape := range remoteShapes() {
			kind := strings.HasPrefix(shape.name, "kind")
			executors := []string{"local", "loopback"}
			if kind {
				executors = []string{"local", "uncertified", "loopback"}
			}
			var local *engine.Result
			for _, executor := range executors {
				what := fmt.Sprintf("%s, %s %s to depth %d", c.Stats(), executor, shape.name, maxDepth)
				opts := append([]engine.Option{engine.WithBudgets(maxDepth, 0)}, shape.opts...)
				var ex *Executor
				switch executor {
				case "local":
					opts = append(opts, engine.WithCertify())
				case "loopback":
					// Worker mirrors hold no recorder, so a race won on a
					// worker leaves no proof to certify: the loopback side
					// runs uncertified until workers certify their own
					// cores (ROADMAP.md, item 1(b)(4)).
					if ex, err = NewLoopback(1, fastOpts(), WorkerOptions{}); err != nil {
						t.Fatalf("NewLoopback: %v", err)
					}
					opts = append(opts, engine.WithExecutor(ex))
				}
				sess, err := engine.New(c, 0, opts...)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				res, err := sess.Check(context.Background())
				if ex != nil {
					ex.Close()
				}
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				switch {
				case badInBound:
					if res.Verdict != engine.Falsified || res.K != firstBad {
						t.Fatalf("%s: %v at %d, want falsified at %d", what, res.Verdict, res.K, firstBad)
					}
				case !kind:
					if res.Verdict != engine.Holds || res.K != maxDepth {
						t.Fatalf("%s: %v at %d, want holds to %d (first bad depth %d)", what, res.Verdict, res.K, maxDepth, firstBad)
					}
				case res.Verdict == engine.Proved:
					if !closed || res.K > maxDepth {
						t.Fatalf("%s: proved at %d, but a bad state is reachable at depth %d", what, res.K, firstBad)
					}
				case res.Verdict != engine.Unknown || res.K != maxDepth:
					t.Fatalf("%s: %v at %d, want proved or undecided at %d", what, res.Verdict, res.K, maxDepth)
				}
				if local == nil {
					local = res
				} else if res.Verdict != local.Verdict || res.K != local.K {
					t.Fatalf("%s: %v at %d, in process %v at %d", what, res.Verdict, res.K, local.Verdict, local.K)
				}
				if executor == "uncertified" {
					got, ok := searchCounts(res, shape.opts)
					if want, _ := searchCounts(local, shape.opts); ok && got != want {
						t.Fatalf("%s: searched %v (conflicts, decisions, propagations), certified %v", what, got, want)
					}
				}
			}
		}
	})
}

// searchCounts sums a k-induction result's conflicts, decisions and
// propagations over base and step, as TestGoldenCounters does: a falsified
// check leaves the step out, because how far its cancelled race got
// depends on timing. ok is false for a shape whose search does not repeat
// — one racing several strategies on as many workers picks its winners by
// timing.
func searchCounts(res *engine.Result, opts []engine.Option) (counts [3]int64, ok bool) {
	if cfg := engine.NewConfig(opts...); cfg.Portfolio && cfg.Jobs != 1 {
		return counts, false
	}
	st := res.BaseStats
	if res.Verdict != engine.Falsified {
		st.Add(res.StepStats)
	}
	return [3]int64{st.Conflicts, st.Decisions, st.Implications}, true
}

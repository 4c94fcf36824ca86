package main

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/racer"
)

// shape is the engine configuration a check runs under. Each shape takes
// a different path through the same layers, which is why the workloads
// are split by shape.
type shape int

const (
	// shapeScratch rebuilds formula and solver at every depth:
	// Unroller.Formula, sat.New, Solve, core.Recorder.
	shapeScratch shape = iota
	// shapeIncremental keeps one solver across depths: Delta.Frame,
	// AddClause, SolveAssuming, core.IncrementalRecorder.
	shapeIncremental
	// shapeKindWarm is k-induction over two one-strategy warm pools (base
	// and step), which race in parallel goroutines but each search alone.
	shapeKindWarm
	// shapeFleet is the warm portfolio over a one-worker loopback fleet
	// with jobs = 1, so the race is sequential: the first strategy always
	// decides and the others are skipped.
	shapeFleet
	// shapeWarmLocal is shapeFleet on the in-process executor. No workload
	// runs it; the traced fleet run does, to state the wire's cost as a
	// ratio.
	shapeWarmLocal
)

// poolBased reports whether the shape runs racer pools behind the
// Executor seam (and so is traced from outside Session.Check) instead of
// one solver the layer driver can drive.
func (s shape) poolBased() bool { return s != shapeScratch && s != shapeIncremental }

func (s shape) String() string {
	switch s {
	case shapeScratch:
		return "scratch"
	case shapeIncremental:
		return "incremental"
	case shapeKindWarm:
		return "kind-warm"
	case shapeFleet:
		return "fleet"
	case shapeWarmLocal:
		return "warm-local"
	default:
		return "?"
	}
}

// options returns the session options of the shape; the fleet shape
// additionally needs WithExecutor, which set-up adds.
func (s shape) options(depth int) []engine.Option {
	opts := []engine.Option{engine.WithBudgets(depth, 0), engine.WithOrdering(core.OrderDynamic)}
	switch s {
	case shapeScratch:
	case shapeIncremental:
		opts = append(opts, engine.WithIncremental())
	case shapeKindWarm:
		opts = append(opts, engine.WithEngine(engine.KInduction), engine.WithIncremental())
	case shapeFleet, shapeWarmLocal:
		opts = append(opts,
			engine.WithPortfolio(nil, 1),
			engine.WithIncremental(),
			engine.WithExchange(racer.ExchangeOptions{Enabled: true}))
	}
	return opts
}

// anyK marks a check whose closing depth has no independent reference
// (reachability fixes that a proof exists, not where induction closes);
// the depth is still compared between passes.
const anyK = -1

// check is one Session.Check call of a workload with its expected answer.
type check struct {
	name  string
	build func() *circuit.Circuit
	shape shape
	depth int
	want  engine.Verdict
	wantK int
}

// workload is a named list of checks: the fixed anchors that are timed,
// or the seed's probes (see probesFor).
type workload struct {
	name string
	// setupReps is how often the set-up block is repeated per pass, sized
	// so the repetitions last about a quarter of a second.
	setupReps int
	checks    []check
}

// Workload names, as BENCHMARK.json lists them.
const (
	wlSearchScratch   = "search_scratch"
	wlEncodeScratch   = "encode_scratch"
	wlIncrementalDeep = "incremental_deep"
	wlFleetWire       = "fleet_wire"
)

// workloads returns the four workloads. Every anchor is deterministic: a
// single search thread (or, for k-induction, two that never interact)
// and no race whose outcome depends on timing. smoke swaps the anchors
// for instances of depth <= 4 so the whole pipeline runs in a test.
func workloads(smoke bool) []workload {
	if smoke {
		return []workload{
			{name: wlSearchScratch, setupReps: 2, checks: []check{
				{"add_w4", func() *circuit.Circuit { return bench.AdderTwin(4, 0, 0) }, shapeScratch, 4, engine.Holds, 4},
			}},
			{name: wlEncodeScratch, setupReps: 2, checks: []check{
				{"gcnt_w3_m5", func() *circuit.Circuit { return bench.GatedCounter(3, 5, 1, 4) }, shapeScratch, 4, engine.Holds, 4},
			}},
			{name: wlIncrementalDeep, setupReps: 2, checks: []check{
				{"mix_w4", func() *circuit.Circuit { return bench.ParityMixer(4, 0, 0) }, shapeIncremental, 4, engine.Holds, 4},
				{"cnt_w3_t3", func() *circuit.Circuit { return bench.Counter(3, 3, 0, 0) }, shapeIncremental, 4, engine.Falsified, 3},
				{"gcnt_w3_off2", func() *circuit.Circuit { return bench.OffsetCounter(3, 4, 5) }, shapeKindWarm, 4, engine.Proved, anyK},
			}},
			{name: wlFleetWire, setupReps: 2, checks: []check{
				{"mix_w4", func() *circuit.Circuit { return bench.ParityMixer(4, 0, 0) }, shapeFleet, 4, engine.Holds, 4},
			}},
		}
	}
	return []workload{
		{
			name:      wlSearchScratch,
			setupReps: 1500,
			checks: []check{
				{"add_w8", func() *circuit.Circuit { return bench.AdderTwin(8, 0, 0) }, shapeScratch, 6, engine.Holds, 6},
			},
		},
		{
			name:      wlEncodeScratch,
			setupReps: 90,
			checks: []check{
				{"gcnt_m10_big", func() *circuit.Circuit { return bench.GatedCounter(4, 10, 6, 16) }, shapeScratch, 40, engine.Holds, 40},
			},
		},
		{
			name:      wlIncrementalDeep,
			setupReps: 150,
			checks: []check{
				{"mix_w8", func() *circuit.Circuit { return bench.ParityMixer(8, 3, 12) }, shapeIncremental, 20, engine.Holds, 20},
				{"cnt_w6_t24", func() *circuit.Circuit { return bench.Counter(6, 24, 2, 8) }, shapeIncremental, 26, engine.Falsified, 24},
				{"gcnt_w7_off41", func() *circuit.Circuit { return bench.OffsetCounter(7, 60, 100) }, shapeKindWarm, 60, engine.Proved, 40},
			},
		},
		{
			name:      wlFleetWire,
			setupReps: 170,
			checks: []check{
				{"mix_w8", func() *circuit.Circuit { return bench.ParityMixer(8, 3, 12) }, shapeFleet, 20, engine.Holds, 20},
			},
		},
	}
}

// probesPerWorkload is how many seeded probes a run checks.
const probesPerWorkload = 3

// probesFor returns the seed's probes for w: small circuits whose
// parameters are drawn from the seed and whose expected answer is
// computed by explicit-state reachability (reach), not by the program
// under test. Probe i runs in the shape of anchor i (cyclically). Probes
// are checked once per run and never timed.
//
// The timed anchors are deliberately not drawn from the seed. CDCL search
// is chaotic in its input: neighbouring AdderTwin parameters move the
// conflict count between 93k and 150k, several times any bound a timing
// could be gated with, so seeded anchors would make runs with different
// seeds incomparable. The seed therefore varies what the program is
// checked on, and the anchors fix what it is timed on.
func probesFor(w workload, wlIndex int, seed uint64) (workload, error) {
	rng := rand.New(rand.NewPCG(seed, uint64(wlIndex)))
	out := workload{name: w.name, setupReps: 1}
	for i := 0; i < probesPerWorkload; i++ {
		name, build := probeCircuit(rng)
		c := build()
		sh := w.checks[i%len(w.checks)].shape
		bound := 4 + rng.IntN(6)
		if sh == shapeKindWarm {
			// Induction with the simple-path constraint closes within
			// the number of states; give it that room.
			bound = 1 << c.NumLatches()
		}
		firstBad, closed, err := reach(c, 0, bound)
		if err != nil {
			return workload{}, fmt.Errorf("probe %s: %w", name, err)
		}
		ck := check{name: fmt.Sprintf("probe%d_%s", i, name), build: build, shape: sh, depth: bound}
		switch {
		case firstBad >= 0:
			ck.want, ck.wantK = engine.Falsified, firstBad
		case sh != shapeKindWarm:
			ck.want, ck.wantK = engine.Holds, bound
		case closed:
			ck.want, ck.wantK = engine.Proved, anyK
		default:
			return workload{}, fmt.Errorf("probe %s: reachable set still growing at depth %d", name, bound)
		}
		out.checks = append(out.checks, ck)
	}
	return out, nil
}

// probeCircuit draws one small distractor-free circuit (at most 6
// latches and 3 inputs, so reach enumerates it in microseconds).
func probeCircuit(rng *rand.Rand) (string, func() *circuit.Circuit) {
	switch rng.IntN(6) {
	case 0:
		w := 3 + rng.IntN(2)
		t := uint64(2 + rng.IntN(1<<w-2))
		return fmt.Sprintf("cnt_w%d_t%d", w, t), func() *circuit.Circuit { return bench.Counter(w, t, 0, 0) }
	case 1:
		s := 3 + rng.IntN(5)
		w := 2 + rng.IntN(2)
		return fmt.Sprintf("lock_s%d_w%d", s, w), func() *circuit.Circuit { return bench.Lock(s, w, 0, 0) }
	case 2:
		w := 3 + rng.IntN(4)
		return fmt.Sprintf("sreg_w%d", w), func() *circuit.Circuit { return bench.ShiftWindow(w, false, 0, 0) }
	case 3:
		w := 3 + rng.IntN(2)
		m := uint64(3 + rng.IntN(1<<w-3))
		return fmt.Sprintf("gcnt_w%d_m%d", w, m), func() *circuit.Circuit { return bench.GatedCounter(w, m, 0, 0) }
	case 4:
		w := 2 + rng.IntN(2)
		return fmt.Sprintf("twin_w%d", w), func() *circuit.Circuit { return bench.Twin(w, 0, 0) }
	default:
		w := 3 + rng.IntN(2)
		m := uint64(3 + rng.IntN(1<<w-4))
		t := m + uint64(rng.IntN(1<<w-int(m)))
		return fmt.Sprintf("gcnt_w%d_m%d_t%d", w, m, t), func() *circuit.Circuit { return bench.OffsetCounter(w, m, t) }
	}
}

// reach is the reference the probes are judged against: breadth-first
// explicit-state reachability from the initial state. It returns the
// smallest depth <= maxDepth at which the property's bad signal can be
// asserted (-1 if none), and whether the reachable set closed before
// maxDepth, in which case the property holds at every depth.
func reach(c *circuit.Circuit, propIdx, maxDepth int) (firstBad int, closed bool, err error) {
	nl, ni := c.NumLatches(), c.NumInputs()
	if nl > 20 || ni > 8 {
		return 0, false, fmt.Errorf("reach: %d latches and %d inputs are too many to enumerate", nl, ni)
	}
	pack := func(st circuit.State) uint32 {
		var m uint32
		for i, b := range st {
			if b {
				m |= 1 << uint(i)
			}
		}
		return m
	}
	init := c.InitialState()
	seen := map[uint32]bool{pack(init): true}
	frontier := []circuit.State{init}
	inputs := make([]bool, ni)
	for depth := 0; depth <= maxDepth; depth++ {
		if len(frontier) == 0 {
			return -1, true, nil
		}
		var next []circuit.State
		for _, st := range frontier {
			for in := 0; in < 1<<uint(ni); in++ {
				for i := range inputs {
					inputs[i] = in>>uint(i)&1 == 1
				}
				succ, bads := c.Step(st, inputs)
				if bads[propIdx] {
					return depth, false, nil
				}
				if k := pack(succ); !seen[k] {
					seen[k] = true
					next = append(next, succ)
				}
			}
		}
		frontier = next
	}
	return -1, false, nil
}

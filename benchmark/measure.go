package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/aiger"
	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/remote"
)

// errNondeterministic fails a run whose checks did not repeat exactly:
// a workload that does not repeat cannot be timed against itself.
var errNondeterministic = errors.New("nondeterministic_workload")

// outcome is what a check is judged and compared by. Every field repeats
// exactly from pass to pass on a deterministic workload.
type outcome struct {
	Verdict      engine.Verdict `json:"verdict"`
	K            int            `json:"k"`
	Conflicts    int64          `json:"conflicts"`
	Propagations int64          `json:"propagations"`
	Decisions    int64          `json:"decisions"`
	Clauses      int64          `json:"clauses"`
	// TraceSteps is the number of frames of the replayed counter-example
	// (Falsified only).
	TraceSteps int `json:"trace_steps,omitempty"`
}

// outcomeOf condenses a result. Clauses is the number of clauses the
// check encoded: every depth's whole formula for scratch runs, the final
// cumulative count for persistent-solver runs (k-induction results carry
// no per-depth rows, so they count zero).
func outcomeOf(sh shape, r *engine.Result) outcome {
	o := outcome{Verdict: r.Verdict, K: r.K}
	for _, st := range []struct{ c, p, d int64 }{
		{r.Total.Conflicts, r.Total.Implications, r.Total.Decisions},
		{r.BaseStats.Conflicts, r.BaseStats.Implications, r.BaseStats.Decisions},
		{r.StepStats.Conflicts, r.StepStats.Implications, r.StepStats.Decisions},
	} {
		o.Conflicts += st.c
		o.Propagations += st.p
		o.Decisions += st.d
	}
	if n := len(r.PerDepth); n > 0 {
		if sh == shapeScratch {
			for _, d := range r.PerDepth {
				o.Clauses += int64(d.FormulaClauses)
			}
		} else {
			o.Clauses = int64(r.PerDepth[n-1].FormulaClauses)
		}
	}
	if r.Trace != nil {
		o.TraceSteps = len(r.Trace.Inputs)
	}
	return o
}

// judge returns why o is not the answer ck expects, or "" if it is.
func judge(ck check, o outcome) string {
	switch {
	case o.Verdict != ck.want:
		return fmt.Sprintf("verdict %v, want %v", o.Verdict, ck.want)
	case ck.wantK != anyK && o.K != ck.wantK:
		return fmt.Sprintf("%v at depth %d, want %d", o.Verdict, o.K, ck.wantK)
	case o.Verdict == engine.Falsified && o.TraceSteps != o.K+1:
		return fmt.Sprintf("counter-example has %d steps, want %d", o.TraceSteps, o.K+1)
	}
	return ""
}

// prepared is the product of one set-up block: one session per check.
type prepared struct {
	circuits []*circuit.Circuit
	sessions []*engine.Session
	closers  []io.Closer
	// parse is the time spent inside aiger.Read, ands the AND gates it
	// parsed — the aiger layer's share of set-up.
	parse time.Duration
	ands  int
}

func (p *prepared) release() {
	for _, c := range p.closers {
		c.Close() // loopback executors: Close joins their goroutines and returns nil
	}
}

// setUp runs one set-up block: for every check, build the circuit, write
// and parse it as AIGER, build the fleet (fleet shape) and the session.
// The parsed circuit is only compared in structure, never solved:
// aiger.Read numbers AND gates in Go map order, which changes the CNF
// variable order and with it the search from run to run. tr, when
// non-nil, attaches the traced run's instrumentation to pool-based
// checks.
func setUp(w workload, tr *tracer) (*prepared, error) {
	p := &prepared{}
	for i, ck := range w.checks {
		c := ck.build()
		text, err := aiger.WriteString(c)
		if err != nil {
			return nil, fmt.Errorf("%s: aiger write: %w", ck.name, err)
		}
		t0 := time.Now()
		parsed, err := aiger.ReadString(text)
		p.parse += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("%s: aiger read: %w", ck.name, err)
		}
		if parsed.NumInputs() != c.NumInputs() || parsed.NumLatches() != c.NumLatches() ||
			parsed.NumAnds() != c.NumAnds() || len(parsed.Properties()) != len(c.Properties()) {
			return nil, fmt.Errorf("%s: aiger round trip changed the structure: %s, then %s", ck.name, c.Stats(), parsed.Stats())
		}
		p.ands += parsed.NumAnds()

		opts := ck.shape.options(ck.depth)
		var ct *checkTrace
		if tr != nil {
			ct = tr.checks[i]
		}
		if ct != nil {
			opts = append(opts, engine.WithProgress(ct.onEvent), engine.WithMetrics(ct.reg))
		}
		switch ck.shape {
		case shapeFleet:
			ropts := remote.Options{}
			if ct != nil {
				ropts.Metrics = ct.reg
			}
			ex, err := remote.NewLoopback(1, ropts, remote.WorkerOptions{})
			if err != nil {
				p.release()
				return nil, fmt.Errorf("%s: loopback fleet: %w", ck.name, err)
			}
			p.closers = append(p.closers, ex)
			if ct != nil {
				opts = append(opts, engine.WithExecutor(ct.wrap(ex, spRemoteRace)))
			} else {
				opts = append(opts, engine.WithExecutor(ex))
			}
		case shapeKindWarm, shapeWarmLocal:
			if ct != nil {
				opts = append(opts, engine.WithExecutor(ct.wrap(engine.LocalExecutor{}, spLocalRace)))
			}
		case shapeScratch, shapeIncremental:
		}
		sess, err := engine.New(c, 0, opts...)
		if err != nil {
			p.release()
			return nil, fmt.Errorf("%s: %w", ck.name, err)
		}
		p.circuits = append(p.circuits, c)
		p.sessions = append(p.sessions, sess)
	}
	return p, nil
}

// heapSampler measures the peak live heap of a pass by collecting garbage
// back to back while the pass runs. Left to its own pacing the collector
// runs a handful of cycles per pass, at moments that depend on timing, and
// the largest of so few readings moved by 10% between identical runs.
//
// A concurrent collection marks everything the program allocates while it
// runs, so its live-heap reading overstates the heap that was live when
// it started by exactly what was allocated meanwhile — up to 40% on
// encode_scratch, which allocates 700 MB/s. The sampler therefore takes
// the allocation counter around each collection and subtracts the
// difference. (Allocation during the sweep that runtime.GC also waits for
// is subtracted too, so the result errs low, by about 1% against a
// stop-the-world run.) The sampler slows the pass down, so the pass it
// runs beside is never timed.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak float64
}

func startHeapSampler() *heapSampler {
	p := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		m := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/heap/allocs:bytes"}}
		for {
			metrics.Read(m)
			before := m[1].Value.Uint64()
			runtime.GC()
			metrics.Read(m)
			p.peak = max(p.peak, float64(m[0].Value.Uint64())-float64(m[1].Value.Uint64()-before))
			select {
			case <-p.stop:
				return
			default:
			}
		}
	}()
	return p
}

// Stop joins the sampler and returns the peak in bytes.
func (p *heapSampler) Stop() float64 {
	close(p.stop)
	<-p.done
	return p.peak
}

// calibrator is a fixed kernel — integer arithmetic over a random walk
// through 4 MB — timed once per pass. It measures the machine, not the
// program: when it drifts, the box drifted.
type calibrator struct {
	buf  []uint64
	sink uint64
}

func newCalibrator() *calibrator { return &calibrator{buf: make([]uint64, 1<<19)} }

func (c *calibrator) run() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	mask := uint64(len(c.buf) - 1)
	for i := 0; i < 1<<21; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.buf[x&mask] += x
		c.sink += c.buf[(x>>21)&mask]
	}
	return time.Since(t0).Seconds()
}

// pass is one measured repetition of a workload.
type pass struct {
	verdictS float64
	setupS   float64
	allocMB  float64
	// peakHeapMB is set by the memory pass only.
	peakHeapMB float64
	calibS     float64
	parseS     float64 // aiger.Read per set-up block
	ands       int
	outcomes   []outcome
	// failures lists the checks that erred or answered wrongly.
	failures []string
}

const mb = 1 << 20

// runPass measures one pass: the set-up block setupReps times, then every
// check of the last block's sessions, closed loop, one at a time. Nothing
// is attached to the sessions: no registry, tracer, progress hook or
// executor decorator. A memory pass runs the heap sampler beside the
// checks and is good for its peak and its outcomes only.
func runPass(ctx context.Context, w workload, cal *calibrator, memory bool) (pass, error) {
	var ps pass
	var prep *prepared
	var setupWall, parse time.Duration
	for r := 0; r < w.setupReps; r++ {
		if prep != nil {
			prep.release()
		}
		t0 := time.Now()
		p, err := setUp(w, nil)
		setupWall += time.Since(t0)
		if err != nil {
			return ps, err
		}
		prep = p
		parse += p.parse
	}
	defer prep.release()
	ps.setupS = setupWall.Seconds() / float64(w.setupReps)
	ps.parseS = parse.Seconds() / float64(w.setupReps)
	ps.ands = prep.ands

	// Start every pass from a collected heap, so that allocation and
	// live-heap readings do not depend on what the previous pass left.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var sampler *heapSampler
	if memory {
		sampler = startHeapSampler()
	}
	results := make([]*engine.Result, len(w.checks))
	errs := make([]error, len(w.checks))
	t0 := time.Now()
	for i, sess := range prep.sessions {
		results[i], errs[i] = sess.Check(ctx)
	}
	ps.verdictS = time.Since(t0).Seconds()
	if memory {
		ps.peakHeapMB = sampler.Stop() / mb
	}
	runtime.ReadMemStats(&m1)
	ps.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / mb
	if err := ctx.Err(); err != nil {
		return ps, err
	}

	ps.outcomes = make([]outcome, len(w.checks))
	for i, ck := range w.checks {
		if errs[i] != nil {
			ps.failures = append(ps.failures, fmt.Sprintf("%s: %v", ck.name, errs[i]))
			continue
		}
		ps.outcomes[i] = outcomeOf(ck.shape, results[i])
		if why := judge(ck, ps.outcomes[i]); why != "" {
			ps.failures = append(ps.failures, fmt.Sprintf("%s: %s", ck.name, why))
		}
	}
	ps.calibS = cal.run()
	return ps, nil
}

// sameOutcomes reports the first check whose outcome differs between two
// runs of the same workload.
func sameOutcomes(w workload, what string, a, b []outcome) error {
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("%w: %s/%s: %s: %+v, first pass %+v", errNondeterministic, w.name, w.checks[i].name, what, b[i], a[i])
		}
	}
	return nil
}

// phase is a sequence of timed passes of one workload, after an optional
// memory pass.
type phase struct {
	passes []pass
	// peakHeapMB is the memory pass's reading (zero without one).
	peakHeapMB float64
}

// minPasses is the least number of passes a phase takes a median over,
// however slow the machine.
const minPasses = 3

// timedPhase runs an optional memory pass and then timed passes until
// another one would overrun the time box (but at least minPasses, or
// exactly fixed passes when fixed > 0), and checks that every pass
// repeated the first one's outcomes.
func timedPhase(ctx context.Context, w workload, cal *calibrator, seconds float64, fixed int, memory bool) (phase, error) {
	var ph phase
	start := time.Now()
	var first []outcome
	if memory {
		ps, err := runPass(ctx, w, cal, true)
		if err != nil {
			return ph, err
		}
		ph.peakHeapMB, first = ps.peakHeapMB, ps.outcomes
	}
	var longest float64
	for {
		n := len(ph.passes)
		if fixed > 0 {
			if n == fixed {
				break
			}
		} else if n >= minPasses && time.Since(start).Seconds()+longest > seconds {
			break
		}
		t0 := time.Now()
		ps, err := runPass(ctx, w, cal, false)
		if err != nil {
			return ph, err
		}
		longest = max(longest, time.Since(t0).Seconds())
		if first == nil {
			first = ps.outcomes
		} else if err := sameOutcomes(w, fmt.Sprintf("pass %d", n+1), first, ps.outcomes); err != nil {
			return ph, err
		}
		ph.passes = append(ph.passes, ps)
	}
	return ph, nil
}

func (ph phase) column(f func(pass) float64) []float64 {
	xs := make([]float64, len(ph.passes))
	for i, p := range ph.passes {
		xs[i] = f(p)
	}
	return xs
}

// failures returns the failed checks over all passes and how many were
// attempted.
func (ph phase) failures() (failed []string, attempted int) {
	for _, p := range ph.passes {
		attempted += len(p.outcomes)
		failed = append(failed, p.failures...)
	}
	return failed, attempted
}

// runProbes checks the seed's probes once: set-up, Session.Check, and
// the verdict against the reachability reference. Probes are not timed.
func runProbes(ctx context.Context, probes workload) (failed []string, attempted int, err error) {
	prep, err := setUp(probes, nil)
	if err != nil {
		return nil, 0, err
	}
	defer prep.release()
	for i, ck := range probes.checks {
		res, err := prep.sessions[i].Check(ctx)
		if cerr := ctx.Err(); cerr != nil {
			return nil, 0, cerr
		}
		attempted++
		if err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", ck.name, err))
		} else if why := judge(ck, outcomeOf(ck.shape, res)); why != "" {
			failed = append(failed, fmt.Sprintf("%s: %s", ck.name, why))
		}
	}
	return failed, attempted, nil
}

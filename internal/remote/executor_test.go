package remote

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/engine"
	"repro/internal/leakcheck"
	"repro/internal/lits"
	"repro/internal/obs"
	"repro/internal/portfolio"
	"repro/internal/sat"
	"repro/internal/unroll"
)

// fastOpts are executor options tuned for tests: short timeouts, no
// reconnects unless a test asks for them.
func fastOpts() Options {
	return Options{
		Session:           "test",
		ConnectTimeout:    2 * time.Second,
		WriteTimeout:      2 * time.Second,
		PingInterval:      200 * time.Millisecond,
		PingMisses:        10,
		ReconnectAttempts: -1,
	}
}

// newLoopbackExecutor builds an n-worker loopback executor wired to a
// fresh registry, closed via t.Cleanup.
func newLoopbackExecutor(t *testing.T, n int, opts Options) (*Executor, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	opts.Metrics = reg
	e, err := NewLoopback(n, opts, WorkerOptions{})
	if err != nil {
		t.Fatalf("NewLoopback: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	return e, reg
}

func checkWith(t *testing.T, m bench.Model, opts ...engine.Option) *engine.Result {
	t.Helper()
	sess, err := engine.New(m.Build(), 0, opts...)
	if err != nil {
		t.Fatalf("%s: New: %v", m.Name, err)
	}
	res, err := sess.Check(context.Background())
	if err != nil {
		t.Fatalf("%s: Check: %v", m.Name, err)
	}
	return res
}

// equivalenceModels returns the named suite model.
func equivalenceModel(t *testing.T, name string) bench.Model {
	t.Helper()
	switch name {
	case "tlc_bug":
		return bench.Model{Name: name, Build: func() *circuit.Circuit { return bench.TrafficLight(true, 0, 0) }}
	case "gcnt_offset":
		return bench.Model{Name: name, Build: func() *circuit.Circuit { return bench.OffsetCounter(4, 10, 12) }}
	}
	m, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("model %s missing", name)
	}
	return m
}

// remoteShapes are the engine configurations, all of which submit their
// races through the executor: every portfolio shape, cold and warm, both
// engines, and the single-ordering shapes (portfolios of one).
func remoteShapes() []struct {
	name   string
	models []string
	depth  int
	opts   []engine.Option
} {
	bmcModels := []string{"add_w8", "cnt_w4_t9", "twin_w8"}
	kindModels := []string{"tlc_bug", "gcnt_offset"}
	return []struct {
		name   string
		models []string
		depth  int
		opts   []engine.Option
	}{
		// Depth 4 for the cold portfolio: from-scratch races on add_w8
		// grow steeply with depth, and depth 4 already races every
		// strategy at every depth (the engine seam test's bound).
		{"bmc-portfolio", bmcModels, 4, []engine.Option{engine.WithPortfolio(nil, 0)}},
		{"bmc-warm", bmcModels, 6, []engine.Option{
			engine.WithPortfolio(nil, 0), engine.WithIncremental()}},
		{"kind-portfolio", kindModels, 6, []engine.Option{
			engine.WithEngine(engine.KInduction), engine.WithPortfolio(nil, 0)}},
		{"kind-warm", kindModels, 6, []engine.Option{
			engine.WithEngine(engine.KInduction), engine.WithPortfolio(nil, 0),
			engine.WithIncremental()}},
		{"kind-warm-single", kindModels, 6, []engine.Option{
			engine.WithEngine(engine.KInduction), engine.WithIncremental()}},
		{"bmc-scratch-single", bmcModels, 4, nil},
		{"bmc-incremental-single", bmcModels, 6, []engine.Option{engine.WithIncremental()}},
		{"kind-sequential", kindModels, 6, []engine.Option{engine.WithEngine(engine.KInduction)}},
	}
}

// TestLoopbackEquivalence: across every executor-using engine shape and
// a mixed suite of models, a session whose races run on remote workers
// returns the same verdict at the same depth as the all-local session
// (which certifies every UNSAT depth's proof and core),
// with the races demonstrably flowing through the wire (remote races
// counted, zero fallbacks). The "faults" variants run the same over a
// hostile transport (faultConn: every write split at random byte
// boundaries and each piece delayed), which a healthy link must absorb
// without a single fallback.
func TestLoopbackEquivalence(t *testing.T) {
	for i, shape := range remoteShapes() {
		for _, workers := range []int{1, 2} {
			for _, faulty := range []bool{false, true} {
				name := fmt.Sprintf("%s/w%d", shape.name, workers)
				if faulty {
					name += "/faults"
				}
				seed := uint64(10*i + workers)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					loopbackEquivalence(t, shape.models, shape.depth, shape.opts, workers, faulty, seed)
				})
			}
		}
	}
}

func loopbackEquivalence(t *testing.T, models []string, depth int, opts []engine.Option, workers int, faulty bool, seed uint64) {
	for _, name := range models {
		m := equivalenceModel(t, name)
		base := append([]engine.Option{engine.WithBudgets(depth, 0)}, opts...)
		ref := checkWith(t, m, append(slices.Clone(base), engine.WithCertify())...)

		var e *Executor
		var reg *obs.Registry
		if faulty {
			e, reg = newFaultyLoopbackExecutor(t, workers, fastOpts(), seed, faultNone, 0)
		} else {
			e, reg = newLoopbackExecutor(t, workers, fastOpts())
		}
		res := checkWith(t, m, append(base, engine.WithExecutor(e))...)
		e.Close()

		if res.Verdict != ref.Verdict || res.K != ref.K {
			t.Errorf("%s: remote (%v@%d) disagrees with local (%v@%d)",
				name, res.Verdict, res.K, ref.Verdict, ref.K)
		}
		snap := reg.Snapshot()
		if snap.Counters[metricRemoteRaces] == 0 {
			t.Errorf("%s: no races went through the remote executor", name)
		}
		if n := snap.Counters[metricRemoteFallbacks]; n != 0 {
			t.Errorf("%s: %d local fallbacks on a healthy loopback", name, n)
		}
	}
}

// TestCertifyRefusesWorkerWins: a worker's mirror holds no recorder, so
// an UNSAT depth won on a worker leaves no proof to certify, and under
// WithCertify the check fails rather than fold an unchecked core — on the
// cold and the warm portfolio alike.
func TestCertifyRefusesWorkerWins(t *testing.T) {
	m := equivalenceModel(t, "twin_w8")
	for _, shape := range remoteShapes()[:2] {
		e, _ := newLoopbackExecutor(t, 1, fastOpts())
		opts := append([]engine.Option{engine.WithBudgets(3, 0), engine.WithCertify(), engine.WithExecutor(e)}, shape.opts...)
		sess, err := engine.New(m.Build(), 0, opts...)
		if err != nil {
			t.Fatal(err)
		}
		_, err = sess.Check(context.Background())
		e.Close()
		if err == nil || !strings.Contains(err.Error(), "not certified") {
			t.Errorf("%s: Check returned %v, want a certification failure", shape.name, err)
		}
	}
}

// TestTCPEquivalence: the same equivalence holds over real sockets — a
// bmcworker serving a TCP listener, the executor dialing it.
func TestTCPEquivalence(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	w := NewWorker(WorkerOptions{Logf: t.Logf})
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Serve(ln)
	}()
	defer func() {
		ln.Close()
		<-done
	}()

	m, ok := bench.ByName("cnt_w4_t9")
	if !ok {
		t.Fatal("model cnt_w4_t9 missing")
	}
	base := []engine.Option{
		engine.WithBudgets(9, 0), engine.WithPortfolio(nil, 0),
		engine.WithIncremental(),
	}
	ref := checkWith(t, m, base...)

	reg := obs.NewRegistry()
	opts := fastOpts()
	opts.Metrics = reg
	e, err := New([]string{ln.Addr().String()}, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer e.Close()
	res := checkWith(t, m, append(base, engine.WithExecutor(e))...)
	if res.Verdict != ref.Verdict || res.K != ref.K {
		t.Errorf("tcp remote (%v@%d) disagrees with local (%v@%d)",
			res.Verdict, res.K, ref.Verdict, ref.K)
	}
	if reg.Snapshot().Counters[metricRemoteRaces] == 0 {
		t.Error("no races went through the TCP executor")
	}
}

// failingConn wraps a worker-side conn that dies after n successful
// writes — the worker crashes mid-check from the coordinator's point of
// view (the write error also severs the pipe, as a dead process would).
type failingConn struct {
	net.Conn
	writes atomic.Int64
	limit  int64
}

func (c *failingConn) Write(b []byte) (int, error) {
	if c.writes.Add(1) > c.limit {
		c.Conn.Close()
		return 0, errors.New("injected worker failure")
	}
	return c.Conn.Write(b)
}

// newDyingWorkerExecutor builds a one-worker executor ("w0", reconnects
// off) whose worker dies after limit successful writes, wired to a fresh
// registry and closed via t.Cleanup.
func newDyingWorkerExecutor(t *testing.T, limit int64) (*Executor, *obs.Registry) {
	t.Helper()
	w := NewWorker(WorkerOptions{})
	var handlers sync.WaitGroup
	opts := fastOpts()
	opts.Dial = func(string) (net.Conn, error) {
		coord, worker := net.Pipe()
		fc := &failingConn{Conn: worker, limit: limit}
		handlers.Add(1)
		go func() {
			defer handlers.Done()
			w.ServeConn(fc)
		}()
		return coord, nil
	}
	reg := obs.NewRegistry()
	opts.Metrics = reg
	e, err := New([]string{"w0"}, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	e.onClose = handlers.Wait
	t.Cleanup(func() { e.Close() })
	return e, reg
}

// TestWorkerLostMidCheck: a worker that dies between depths is evicted
// and the stranded attempts re-race locally; the check completes with
// the correct verdict. Reconnects are disabled, so every later depth
// exercises the zero-healthy-links degradation too.
func TestWorkerLostMidCheck(t *testing.T) {
	// HelloAck + two race responses, then the "process" dies.
	e, reg := newDyingWorkerExecutor(t, 3)

	m, ok := bench.ByName("cnt_w4_t9")
	if !ok {
		t.Fatal("model cnt_w4_t9 missing")
	}
	ref := checkWith(t, m, engine.WithBudgets(9, 0), engine.WithPortfolio(nil, 0))
	res := checkWith(t, m, engine.WithBudgets(9, 0), engine.WithPortfolio(nil, 0),
		engine.WithExecutor(e))
	if res.Verdict != ref.Verdict || res.K != ref.K {
		t.Errorf("after worker loss: (%v@%d), want (%v@%d)", res.Verdict, res.K, ref.Verdict, ref.K)
	}
	snap := reg.Snapshot()
	if n := snap.Counters[obs.Name(metricRemoteEvictions, "worker", "w0")]; n == 0 {
		t.Error("worker death not recorded as an eviction")
	}
	if n := snap.Counters[metricRemoteFallbacks]; n == 0 {
		t.Error("stranded attempts never re-raced locally")
	}
}

// TestWorkerLostMidCheckWarm is the warm shape of the same loss, and the
// only reader of the coordinator's pool solvers there is: while the worker
// lives the races run on its mirrors and no coordinator-side solver holds
// a clause; when it dies the stranded attempts load from the unrolling, at
// that depth, and finish the check locally with the all-local verdict.
func TestWorkerLostMidCheckWarm(t *testing.T) {
	// HelloAck + three race responses, then the "process" dies.
	e, reg := newDyingWorkerExecutor(t, 4)

	m, ok := bench.ByName("cnt_w4_t9")
	if !ok {
		t.Fatal("model cnt_w4_t9 missing")
	}
	base := []engine.Option{
		engine.WithBudgets(9, 0), engine.WithPortfolio(nil, 0),
		engine.WithIncremental(),
	}
	ref := checkWith(t, m, base...)

	// Every depth's end looks at the coordinator's pool: frames loaded by
	// any of its four racers, against whether a fallback has happened yet.
	loadedFrames := func() (n int64) {
		for name, v := range reg.Snapshot().Counters {
			if strings.HasPrefix(name, "racer_frames_loaded_total{") {
				n += v
			}
		}
		return n
	}
	healthyDepths := 0
	watch := func(ev engine.Event) {
		if ev.Kind != engine.DepthFinished {
			return
		}
		if reg.Snapshot().Counters[metricRemoteFallbacks] > 0 {
			return
		}
		healthyDepths++
		if n := loadedFrames(); n != 0 {
			t.Errorf("depth %d: no fallback yet, but the coordinator's racers loaded %d frames", ev.K, n)
		}
	}
	res := checkWith(t, m, append(base, engine.WithExecutor(e), engine.WithMetrics(reg), engine.WithProgress(watch))...)
	if res.Verdict != ref.Verdict || res.K != ref.K {
		t.Errorf("after worker loss: (%v@%d), want (%v@%d)", res.Verdict, res.K, ref.Verdict, ref.K)
	}
	snap := reg.Snapshot()
	if n := snap.Counters[metricRemoteFallbacks]; n == 0 {
		t.Error("stranded attempts never re-raced locally")
	}
	if healthyDepths == 0 {
		t.Error("the worker was lost before any depth finished remotely: nothing checked the healthy phase")
	}
	if loadedFrames() == 0 {
		t.Error("the fallback races decided the check without loading a single frame")
	}
	t.Logf("%d depths finished on the worker; the fallback loaded %d frames across the pool", healthyDepths, loadedFrames())
}

// TestWorkerReconnect: with reconnects enabled, a transiently failing
// worker is redialed, its next race is preceded by the query's circuit
// again (its mirrors restart empty) if the check is still running, and the
// check reaches the correct verdict.
func TestWorkerReconnect(t *testing.T) {
	e, reg := newReconnectingExecutor(t)
	m, ok := bench.ByName("cnt_w4_t9")
	if !ok {
		t.Fatal("model cnt_w4_t9 missing")
	}
	base := []engine.Option{
		engine.WithBudgets(9, 0), engine.WithPortfolio(nil, 0),
		engine.WithIncremental(),
	}
	ref := checkWith(t, m, base...)
	res := checkWith(t, m, append(base, engine.WithExecutor(e))...)
	if res.Verdict != ref.Verdict || res.K != ref.K {
		t.Errorf("after reconnect: (%v@%d), want (%v@%d)", res.Verdict, res.K, ref.Verdict, ref.K)
	}
	if !awaitReconnect(reg) {
		t.Error("transient worker failure never reconnected")
	}
}

// newReconnectingExecutor builds a one-worker executor ("w0") whose first
// connection dies after three successful worker writes and which redials
// it, wired to a fresh registry and closed via t.Cleanup.
func newReconnectingExecutor(t *testing.T) (*Executor, *obs.Registry) {
	t.Helper()
	w := NewWorker(WorkerOptions{})
	var handlers sync.WaitGroup
	var dials atomic.Int64
	opts := fastOpts()
	opts.ReconnectAttempts = 5
	opts.ReconnectBackoff = 10 * time.Millisecond
	opts.Dial = func(string) (net.Conn, error) {
		coord, worker := net.Pipe()
		nc := net.Conn(worker)
		if dials.Add(1) == 1 {
			nc = &failingConn{Conn: worker, limit: 3}
		}
		handlers.Add(1)
		go func() {
			defer handlers.Done()
			w.ServeConn(nc)
		}()
		return coord, nil
	}
	reg := obs.NewRegistry()
	opts.Metrics = reg
	e, err := New([]string{"w0"}, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	e.onClose = handlers.Wait
	t.Cleanup(func() { e.Close() })
	return e, reg
}

// awaitReconnect reports whether worker w0 reconnects within 5 s. The
// redial runs in the background from the eviction on, so a check that
// finishes inside the backoff, its stranded races re-raced locally, can
// end before it.
func awaitReconnect(reg *obs.Registry) bool {
	reconnects := obs.Name(metricRemoteReconnects, "worker", "w0")
	for deadline := time.Now().Add(5 * time.Second); reg.Snapshot().Counters[reconnects] == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	return reg.Snapshot().Counters[reconnects] != 0
}

// TestWorkerRaceRejected: a race for a query whose circuit the worker does
// not hold is rejected by the worker (begin's check), which counts the
// error; the coordinator logs the rejection and re-races the attempt
// locally, once, to a decided result.
func TestWorkerRaceRejected(t *testing.T) {
	reg := obs.NewRegistry()
	opts := fastOpts()
	opts.Metrics = reg
	var rejected atomic.Int64
	opts.Logf = func(format string, args ...any) {
		if strings.Contains(format, "race rejected") {
			rejected.Add(1)
		}
	}
	e, err := NewLoopback(1, opts, WorkerOptions{Metrics: reg})
	if err != nil {
		t.Fatalf("NewLoopback: %v", err)
	}
	defer e.Close()

	u, err := unroll.New(bench.ParityMixer(5, 3, 10), 0)
	if err != nil {
		t.Fatal(err)
	}
	d := u.Delta()
	local := sat.New(cnf.New(0), sat.Options{})
	for k := 0; k <= 1; k++ {
		frame := d.Frame(k)
		local.AddVars(frame.NumVars)
		for _, cl := range frame.Clauses {
			local.AddClause(cl)
		}
	}
	// The link believes it carried the circuit already, so the request goes
	// alone to a worker that holds none.
	origin := &portfolio.Origin{Unroller: u}
	l := e.links[0]
	l.mu.Lock()
	l.held[string(engine.QueryBMC)] = origin
	l.mu.Unlock()

	attempts := []portfolio.LiveAttempt{{Name: "vsids", Origin: origin, K: 1, Solver: func() *sat.Solver { return local }}}
	res := e.RaceLive(engine.QueryBMC, attempts, []lits.Lit{d.ActLit(1)}, 1, nil)
	if res.Winner != 0 || !res.Result.Status.Decided() {
		t.Fatalf("rejected race: winner %d, %v; want the local fallback to decide", res.Winner, res.Result.Status)
	}
	snap := reg.Snapshot()
	if n := snap.Counters[metricWorkerRaceErrors]; n != 1 {
		t.Errorf("worker counted %d race errors, want 1", n)
	}
	if n := snap.Counters[metricRemoteFallbacks]; n != 1 {
		t.Errorf("coordinator ran %d fallbacks, want 1", n)
	}
	if n := rejected.Load(); n != 1 {
		t.Errorf("coordinator logged %d rejections, want 1", n)
	}
}

// TestExecutorReuse: one executor serves three sessions on three models in
// turn, warm and cold. Each session's sequences are new origins, so every
// link is sent the new circuit before its first race and the worker drops
// the mirrors of the old one; every verdict and depth is the all-local one,
// and not a race falls back.
func TestExecutorReuse(t *testing.T) {
	for _, shape := range reuseShapes() {
		t.Run(shape.name, func(t *testing.T) {
			e, reg := newLoopbackExecutor(t, 2, fastOpts())
			for _, name := range []string{"twin_w8", "cnt_w4_t9", "add_w8"} {
				m := equivalenceModel(t, name)
				ref := checkWith(t, m, shape.opts...)
				res := checkWith(t, m, append(shape.opts, engine.WithExecutor(e))...)
				if res.Verdict != ref.Verdict || res.K != ref.K {
					t.Errorf("%s: remote (%v@%d) disagrees with local (%v@%d)", name, res.Verdict, res.K, ref.Verdict, ref.K)
				}
				if n := reg.Snapshot().Counters[metricRemoteFallbacks]; n != 0 {
					t.Fatalf("%s: %d races fell back to local solvers on a reused executor", name, n)
				}
			}
		})
	}
}

// reuseShapes are the portfolio shapes an executor is reused and closed
// under: the warm and cold BMC portfolios and the warm k-induction one.
func reuseShapes() []struct {
	name string
	opts []engine.Option
} {
	return []struct {
		name string
		opts []engine.Option
	}{
		{"warm", []engine.Option{engine.WithBudgets(9, 0), engine.WithPortfolio(nil, 0), engine.WithIncremental()}},
		{"cold", []engine.Option{engine.WithBudgets(4, 0), engine.WithPortfolio(nil, 0)}},
		{"kind-warm", []engine.Option{engine.WithBudgets(9, 0), engine.WithEngine(engine.KInduction), engine.WithPortfolio(nil, 0), engine.WithIncremental()}},
	}
}

// TestCloseJoinsGoroutines: Close joins every goroutine the executor and
// its loopback workers started — each link's reader and heartbeat, each
// worker's connection handler and its races, a redial — so none started
// since the executor was built is short of its join when Close returns,
// read with no grace. Close's last act is a join, so the goroutines are
// judged by their stacks, not counted (leakcheck.CheckAfterJoin). The
// check runs under a cancellable context, so every race forwards a stop,
// that is cancelled only after the goroutines are read, so one left
// waiting on it shows; the last case closes an executor whose link was
// evicted and reconnected during the check.
func TestCloseJoinsGoroutines(t *testing.T) {
	m, ok := bench.ByName("cnt_w4_t9")
	if !ok {
		t.Fatal("model cnt_w4_t9 missing")
	}
	check := func(t *testing.T, ctx context.Context, e *Executor, opts []engine.Option) {
		t.Helper()
		sess, err := engine.New(m.Build(), 0, append(opts, engine.WithExecutor(e))...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Check(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict == engine.Unknown {
			t.Fatalf("check ended Unknown at depth %d", res.K)
		}
	}
	for _, shape := range reuseShapes() {
		t.Run(shape.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			snap := leakcheck.Take()
			e, _ := newLoopbackExecutor(t, 2, fastOpts())
			check(t, ctx, e, shape.opts)
			e.Close()
			if err := snap.CheckAfterJoin(); err != nil {
				t.Errorf("Close: %v", err)
			}
		})
	}
	t.Run("reconnect", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		snap := leakcheck.Take()
		e, reg := newReconnectingExecutor(t)
		check(t, ctx, e, reuseShapes()[0].opts)
		if !awaitReconnect(reg) {
			t.Fatal("transient worker failure never reconnected")
		}
		e.Close()
		if err := snap.CheckAfterJoin(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
}

// TestRemoteCancellation: cancelling a check mid-race through the
// remote executor returns promptly with Unknown and leaks neither
// goroutines nor connections — the remote analogue of the engine's
// cancellation suite, run under -race in CI.
func TestRemoteCancellation(t *testing.T) {
	m, ok := bench.ByName("mix_w8")
	if !ok {
		t.Fatal("model mix_w8 missing")
	}
	before := runtime.NumGoroutine()

	e, _ := newLoopbackExecutor(t, 2, fastOpts())
	sess, err := engine.New(m.Build(), 0,
		engine.WithBudgets(60, 0), engine.WithPortfolio(nil, 0),
		engine.WithIncremental(),
		engine.WithExecutor(e))
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
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatalf("Check: %v", o.err)
		}
		if o.res.Verdict != engine.Unknown {
			t.Errorf("cancelled check returned %v, want Unknown", o.res.Verdict)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled check did not return")
	}
	e.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before || time.Now().After(deadline) {
			if g > before {
				t.Errorf("goroutines leaked: %d before, %d after close", before, g)
			}
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
}

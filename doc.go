// Package repro reproduces "Refining the SAT decision ordering for bounded
// model checking" (DAC 2004) and grows it into a concurrent verification
// engine behind one unified session API:
//
//	sess, err := engine.New(circ, propIdx,
//	        engine.WithEngine(engine.KInduction),
//	        engine.WithPortfolio(nil, 4),
//	        engine.WithIncremental())
//	res, err := sess.Check(ctx)
//
// Layout:
//
//	internal/engine      THE session API: engine.New + Session.Check(ctx),
//	                     functional options validated in one place
//	                     (Config.Validate), the Executor seam for
//	                     local/remote race execution (LocalExecutor wraps
//	                     the in-process goroutine pool; remote.Executor
//	                     fans races out to worker daemons), a per-depth
//	                     progress event stream, and the one depth loop
//	                     (loop.go) over instance sequence (BMC; k-induction
//	                     base + step) × solver lifetime (fresh per depth;
//	                     warm pools) × attempt set (a strategy set; a
//	                     single ordering is a portfolio of one);
//	                     TestGoldenCounters pins every shape's search
//	internal/obs         zero-dependency observability layer: lock-cheap
//	                     metrics registry (atomic counters/gauges/
//	                     histograms, nil-safe no-op handles when off) with
//	                     text/JSON/Prometheus export, and a span tracer
//	                     emitting Chrome-trace JSON; every layer below
//	                     hangs its instrumentation off these two types
//	internal/sat         incremental CDCL solver (Chaff lineage) over a
//	                     paged clause arena (pointer-free []uint32 pages
//	                     that grow without copying, bulk load into a new
//	                     or a used solver's storage, in-place compaction)
//	                     and a paged watch store (a 12-byte record per
//	                     literal, lists that move within pages, in-place
//	                     compaction):
//	                     clause addition and assumption solving on a
//	                     live solver, proof recording, guidance scores,
//	                     cancellation
//	internal/core        the conflict dependency graph (one flat recorder
//	                     for fresh and persistent solvers, optional literal
//	                     payload, one forgetting rule), unsat cores and the
//	                     plain proof behind them, bmc_score board, ordering
//	                     strategies and the one rule mapping a strategy
//	                     to solver guidance (§3.1-§3.3)
//	internal/proofcheck  the one proof checker, sharing nothing with the
//	                     solver or the recorder (it imports lits and cnf
//	                     alone): replays the final conflict's cone by RUP,
//	                     under the failed assumptions, and requires its
//	                     leaves to be exactly the reported core
//	internal/unroll      time-frame expansion: the whole-instance Instance,
//	                     grown in place from depth to depth (Formula is
//	                     its one-shot form), and the per-frame Delta of
//	                     the BMC and induction-step queries (activation-
//	                     guarded bad literals, monotone simple paths);
//	                     one (node, frame) numbering and one set of
//	                     clause emitters serve all four
//	internal/bmc         test-only: the behavioural suite of the four BMC
//	                     shapes, driven through engine
//	internal/portfolio   strategy-racing engine: cancellable solver race
//	                     (cold Race, live-solver RaceLive), worker pool,
//	                     win/loss and warm-win telemetry
//	internal/racer       warm portfolio pool: persistent per-strategy
//	                     solvers living across the depths of one query
//	                     sequence (Source: BMC/base or induction-step
//	                     frames), each loaded when it is about to search
//	                     (Feed.CatchUp, shared with the worker's mirrors);
//	                     no clause passes between racers, so every core
//	                     leaf is a frame clause
//	internal/remote      the distributed portfolio: numbered,
//	                     length-prefixed frames in a binary codec
//	                     (bounded decode, fuzzed; guidance as runs), the
//	                     worker daemon holding warm per-connection mirror
//	                     solvers, and the coordinator-side remote.Executor
//	                     (fan-out with first-verdict-wins cancellation,
//	                     heartbeats, reconnect + frame replay, local
//	                     re-race fallback when a worker dies mid-depth)
//	internal/induction   test-only: the behavioural suite of the three
//	                     k-induction shapes and the step-query encodings
//	internal/experiments the evaluation as one (model × column) grid runner
//	                     over engine sessions plus a registry of
//	                     declarative experiment specs: paper tables/figures
//	                     and ablations (portfolio vs best single order,
//	                     incremental vs scratch, cold vs warm, refine),
//	                     each a column list and a renderer
//	internal/bench       the 37-model synthetic evaluation suite
//	cmd/bmc              CLI front end (-engine=bmc|kind, -order=vsids|
//	                     static|dynamic|timeaxis|portfolio, -incremental,
//	                     -json; the flag matrix is validated by
//	                     engine.Config.Validate before the circuit is
//	                     opened, -v streams the session's progress
//	                     events, -metrics/-metrics-addr/-trace expose the
//	                     observability layer, -remote=host:port,... fans
//	                     portfolio races out to bmcworker daemons)
//	cmd/bmcworker        the distributed portfolio's worker daemon
//	                     (-listen accepts coordinators; -metrics-addr
//	                     serves its wire/race counters as Prometheus)
//	cmd/tablegen         paper artifacts: a lookup in the experiments
//	                     registry and one run-render loop
//	benchmark            the performance contract (BENCHMARK.json): four
//	                     fixed workloads, gated end-to-end metrics and
//	                     per-layer spans; imports internal/..., is
//	                     imported by nothing
//
// The root package holds the paper-artifact benchmarks (bench_test.go:
// BenchmarkExperiment renders every registry entry from one fill).
package repro

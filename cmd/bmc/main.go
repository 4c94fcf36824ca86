// Command bmc runs bounded model checking — or a full k-induction proof —
// on an AIGER (.aag) circuit through the unified engine session API:
//
//	bmc -order=dynamic -depth=20 design.aag
//	bmc -order=dynamic -incremental -depth=20 design.aag
//	bmc -order=portfolio -jobs=4 -depth=20 design.aag
//	bmc -order=portfolio -incremental -depth=20 design.aag            # warm racer pool
//	bmc -engine=kind -depth=16 design.aag
//	bmc -engine=kind -order=portfolio -incremental -depth=16 design.aag  # warm k-induction
//	bmc -json -order=portfolio -incremental design.aag                # machine-readable result
//
// Orders: vsids (plain Chaff baseline), static, dynamic (the paper's two
// refined configurations), timeaxis (Shtrichman-style comparator), and
// portfolio — race several orderings concurrently per depth, keep the
// first verdict, and cancel the losers (-jobs bounds the concurrent
// solvers, -strategies picks the raced set).
//
// -incremental keeps live solvers across depths (with -order=portfolio:
// the warm racer pool). The flag matrix is validated by
// engine.Config.Validate before the circuit is even opened, so meaningless
// combinations (e.g. -jobs without a portfolio) are rejected with an error
// naming the offending knob.
//
// -json emits the unified engine.Result as JSON on stdout (verdict, K,
// per-depth stats, portfolio telemetry, trace, metrics snapshot) for
// scripting; -v streams per-depth progress lines as the check runs,
// through the session's event stream.
//
// -remote=host:port,host:port distributes the races across a fleet of
// bmcworker daemons (cmd/bmcworker): each depth's attempts fan out over
// the workers, the first verdict wins, and a worker lost mid-check is
// evicted (its attempts re-race locally) and redialed in the background.
// Requires a racing shape: -order=portfolio, or -engine=kind with
// -incremental.
//
// Observability: -metrics dumps the session's metric registry after the
// check; -metrics-addr=:9090 serves the same registry live at /metrics
// (Prometheus exposition) plus the Go profiler at /debug/pprof/ while
// the check runs; -trace=out.json records the check as a Chrome trace
// (open in chrome://tracing or https://ui.perfetto.dev) with one lane
// per query and one per racer strategy.
//
// The wall-clock budget (-timeout) and Ctrl-C both cancel the check
// through its context: the run stops promptly and reports what it
// completed.
//
// The exit code is 0 when the property holds up to the bound (or is
// proved by induction), 1 when a counter-example is found, and 2 on
// errors or exhausted budgets.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"repro/internal/aiger"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/portfolio"
	"repro/internal/remote"
	"repro/internal/unroll"
)

// flagConfig is the parsed flag set buildOptions translates; keeping it
// a plain struct makes the translation (and through it the validation
// rules) unit-testable without a flag.FlagSet.
type flagConfig struct {
	engine, order, strategies, score string
	incremental                      bool
	jobs                             int
	depth                            int
	conflicts                        int64
	divisor                          int
}

// buildOptions translates the flags into engine options. String-level
// parse failures (unknown -engine/-order/-score names, bad -strategies
// entries) error out here; every combination rule lives in
// engine.Config.Validate, which the caller runs on the resulting
// configuration.
func buildOptions(fc flagConfig) ([]engine.Option, error) {
	var eo []engine.Option
	switch fc.engine {
	case "bmc":
		eo = append(eo, engine.WithEngine(engine.BMC))
	case "kind":
		eo = append(eo, engine.WithEngine(engine.KInduction))
	default:
		return nil, fmt.Errorf("unknown engine %q (valid: bmc, kind)", fc.engine)
	}
	eo = append(eo,
		engine.WithBudgets(fc.depth, fc.conflicts),
		engine.WithSwitchDivisor(fc.divisor))

	switch fc.score {
	case "weighted-sum":
		eo = append(eo, engine.WithScoreMode(core.WeightedSum))
	case "unweighted-sum":
		eo = append(eo, engine.WithScoreMode(core.UnweightedSum))
	case "last-core-only":
		eo = append(eo, engine.WithScoreMode(core.LastCoreOnly))
	case "exp-decay":
		eo = append(eo, engine.WithScoreMode(core.ExpDecay))
	default:
		return nil, fmt.Errorf("unknown score mode %q (valid: weighted-sum, unweighted-sum, last-core-only, exp-decay)", fc.score)
	}

	if fc.order == "portfolio" {
		set, err := portfolio.ParseSet(fc.strategies)
		if err != nil {
			return nil, err
		}
		eo = append(eo, engine.WithPortfolio(set, fc.jobs))
	} else {
		st, ok := core.ParseStrategy(fc.order)
		if !ok {
			return nil, fmt.Errorf("unknown order %q (valid: vsids, static, dynamic, timeaxis, portfolio)", fc.order)
		}
		eo = append(eo, engine.WithOrdering(st))
		// Surface portfolio-only flags on the config so Validate rejects
		// them with its canonical message instead of them being silently
		// dropped here.
		if fc.jobs != 0 {
			eo = append(eo, func(c *engine.Config) { c.Jobs = fc.jobs })
		}
		if fc.strategies != "" {
			set, err := portfolio.ParseSet(fc.strategies)
			if err != nil {
				return nil, err
			}
			eo = append(eo, func(c *engine.Config) { c.Strategies = set })
		}
	}
	if fc.incremental {
		eo = append(eo, engine.WithIncremental())
	}
	return eo, nil
}

// printWitness dumps the per-frame input vectors of a counter-example.
func printWitness(w io.Writer, tr *unroll.Trace) {
	for f, in := range tr.Inputs {
		fmt.Fprintf(w, "  frame %2d inputs:", f)
		for _, b := range in {
			if b {
				fmt.Fprint(w, " 1")
			} else {
				fmt.Fprint(w, " 0")
			}
		}
		fmt.Fprintln(w)
	}
}

// progressPrinter renders the session's event stream as per-depth rows —
// the -v view, printed live as depths finish. The switch is exhaustive
// over engine.EventKind (bmclint/eventexhaustive): a new event kind must
// decide its -v rendering here rather than vanish silently.
func progressPrinter(w io.Writer) func(engine.Event) {
	headerDone := false
	return func(e engine.Event) {
		switch e.Kind {
		case engine.DepthStarted:
			// Quiet: the finished row carries everything worth a line.
		case engine.DepthFinished:
			if !headerDone {
				fmt.Fprintf(w, "%-4s %-5s %-8s %-10s %10s %8s %6s %12s %12s %10s %10s %7s %9s %9s\n",
					"k", "query", "status", "winner", "decisions", "switch", "guided", "implications", "conflicts", "coreCls", "coreVars", "overlap", "encode", "solve")
				headerDone = true
			}
			d := e.Depth
			winner := d.Winner
			if winner == "" {
				winner = "-"
			}
			// The decision count at which the dynamic ordering handed over
			// from bmc_score to VSIDS, when it did.
			switched := "-"
			if d.Stats.GuidanceSwitched {
				switched = strconv.FormatInt(d.Stats.SwitchDecision, 10)
			}
			// The share of the decisions the refined ordering took: on a
			// variable with a positive score while guidance was active.
			guided := "-"
			if d.Stats.Decisions > 0 {
				guided = strconv.FormatFloat(float64(d.Stats.GuidedDecisions)/float64(d.Stats.Decisions), 'f', 3, 64)
			}
			// The Jaccard overlap of this depth's core variables with the last
			// depth's, when both folded a core.
			overlap := "-"
			if d.CoreOverlap != nil {
				overlap = strconv.FormatFloat(*d.CoreOverlap, 'f', 3, 64)
			}
			fmt.Fprintf(w, "%-4d %-5s %-8s %-10s %10d %8s %6s %12d %12d %10d %10d %7s %9s %9s\n",
				e.K, e.Query, d.Status, winner, d.Stats.Decisions, switched, guided, d.Stats.Implications,
				d.Stats.Conflicts, d.CoreClauses, d.CoreVars, overlap,
				d.EncodeWall.Round(10*time.Microsecond), d.SolveWall.Round(10*time.Microsecond))
		case engine.RaceFinished:
			fmt.Fprintf(w, "     race  k=%-4d %-5s %s\n", e.K, e.Query, raceSummary(e.Racers))
		case engine.ExchangeFlushed:
			// Never emitted (engine.ExchangeFlushed).
		}
	}
}

// raceSummary renders one joined race as a single line: each racer's
// status and conflict spend, with the winner starred.
func raceSummary(rows []engine.RacerRow) string {
	var b strings.Builder
	for i, r := range rows {
		if i > 0 {
			b.WriteString("  ")
		}
		switch {
		case r.Winner:
			b.WriteByte('*')
		case r.Skipped:
			b.WriteByte('~')
		}
		fmt.Fprintf(&b, "%s=%s/%d", r.Name, r.Status, r.Conflicts)
	}
	return b.String()
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bmc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		engineName = fs.String("engine", "bmc", "verification engine: bmc|kind (k-induction)")
		order      = fs.String("order", "dynamic", "decision ordering: vsids|static|dynamic|timeaxis|portfolio")
		increment  = fs.Bool("incremental", false, "keep live solvers across depths (with -order=portfolio: the warm racer pool)")
		jobs       = fs.Int("jobs", 0, "portfolio: max concurrent solvers per depth (0 = one per strategy)")
		strats     = fs.String("strategies", "", "portfolio: comma-separated strategy set (default vsids,static,dynamic,timeaxis)")
		depth      = fs.Int("depth", 20, "maximum unrolling depth (inclusive)")
		prop       = fs.Int("prop", 0, "property (output) index to check")
		conflicts  = fs.Int64("conflicts", 0, "per-instance conflict budget (0 = unlimited)")
		timeout    = fs.Duration("timeout", 0, "total wall-clock budget (0 = none)")
		scoreMode  = fs.String("score", "weighted-sum", "bmc_score rule: weighted-sum|unweighted-sum|last-core-only|exp-decay")
		divisor    = fs.Int("switch-divisor", core.SwitchDivisor, "dynamic switch divisor: revert to VSIDS after lits/divisor decisions (0 selects the paper's 64)")
		jsonOut    = fs.Bool("json", false, "emit the unified engine.Result as JSON on stdout")
		verbose    = fs.Bool("v", false, "stream per-depth statistics as the check runs (switch: the decision count at which the dynamic ordering fell back to VSIDS at that depth, - if it did not; guided: the share of decisions taken on a variable with a positive bmc_score while guidance was active; -json has them as stats.SwitchDecision and stats.GuidedDecisions in each per_depth row)")
		witness    = fs.Bool("witness", false, "print the counter-example trace")
		metricsOut = fs.Bool("metrics", false, "dump the session's metric registry after the check")
		metricAddr = fs.String("metrics-addr", "", "serve /metrics (Prometheus) and /debug/pprof/ on this address while the check runs (e.g. :9090)")
		traceOut   = fs.String("trace", "", "write the check as a Chrome trace JSON to this file (view in chrome://tracing or ui.perfetto.dev)")
		remotes    = fs.String("remote", "", "comma-separated bmcworker addresses to distribute races across (requires -order=portfolio, or -engine=kind -incremental)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: bmc [flags] design.aag")
		fs.PrintDefaults()
		return 2
	}

	eo, err := buildOptions(flagConfig{
		engine:      *engineName,
		order:       *order,
		strategies:  *strats,
		score:       *scoreMode,
		incremental: *increment,
		jobs:        *jobs,
		depth:       *depth,
		conflicts:   *conflicts,
		divisor:     *divisor,
	})
	if err != nil {
		fmt.Fprintln(stderr, "bmc:", err)
		return 2
	}
	// Validate the full combination before the circuit is even opened, so
	// a bogus invocation reports what is wrong instead of silently
	// ignoring a flag or failing mid-run.
	cfg := engine.NewConfig(eo...)
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(stderr, "bmc:", err)
		return 2
	}
	workerAddrs := splitAddrs(*remotes)
	if len(workerAddrs) > 0 && !(*order == "portfolio" || (*engineName == "kind" && *increment)) {
		fmt.Fprintln(stderr, "bmc: -remote needs races to distribute: use -order=portfolio, or -engine=kind with -incremental")
		return 2
	}

	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "bmc:", err)
		return 2
	}
	circ, err := aiger.Read(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(stderr, "bmc:", err)
		return 2
	}
	if !*jsonOut {
		fmt.Fprintln(stdout, circ.Stats())
	}

	if *verbose && !*jsonOut {
		eo = append(eo, engine.WithProgress(progressPrinter(stdout)))
	}
	// The registry is live whenever any consumer wants it: the -metrics
	// dump, the /metrics endpoint, or the -json result (whose Metrics
	// field carries the snapshot). Otherwise the no-op path stays in place.
	var reg *obs.Registry
	if *metricsOut || *metricAddr != "" || *jsonOut {
		reg = obs.NewRegistry()
		eo = append(eo, engine.WithMetrics(reg))
	}
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer()
		eo = append(eo, engine.WithTracer(tracer))
	}
	if len(workerAddrs) > 0 {
		rex, err := remote.New(workerAddrs, remote.Options{
			Session: fs.Arg(0),
			Metrics: reg,
			Tracer:  tracer,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(stderr, "bmc: remote: "+format+"\n", args...)
			},
		})
		if err != nil {
			fmt.Fprintln(stderr, "bmc:", err)
			return 2
		}
		defer rex.Close()
		eo = append(eo, engine.WithExecutor(rex))
		if !*jsonOut {
			fmt.Fprintf(stdout, "distributing races across %d worker(s)\n", len(workerAddrs))
		}
	}
	if *metricAddr != "" {
		ln, err := net.Listen("tcp", *metricAddr)
		if err != nil {
			fmt.Fprintln(stderr, "bmc:", err)
			return 2
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			reg.WritePrometheus(w)
		})
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		// The debug server lives exactly as long as the check: once run
		// returns (verdict, SIGINT, timeout — all funnel through the
		// check's context), the deferred Close tears the listener down
		// and the join channel waits for the serve goroutine to exit, so
		// nothing leaks past the run boundary.
		srv := &http.Server{Handler: mux}
		srvDone := make(chan struct{})
		go func() {
			defer close(srvDone)
			srv.Serve(ln) //nolint:errcheck // ErrServerClosed on shutdown
		}()
		defer func() {
			srv.Close() //nolint:errcheck // best-effort teardown
			<-srvDone
		}()
		if !*jsonOut {
			fmt.Fprintf(stdout, "serving /metrics and /debug/pprof/ on %s\n", ln.Addr())
		}
	}
	sess, err := engine.New(circ, *prop, eo...)
	if err != nil {
		fmt.Fprintln(stderr, "bmc:", err)
		return 2
	}

	ctx := context.Background()
	var cancel context.CancelFunc = func() {}
	if *timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, *timeout)
	}
	defer cancel()
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt)
	defer stop()

	res, err := sess.Check(ctx)
	if err != nil {
		fmt.Fprintln(stderr, "bmc:", err)
		return 2
	}

	if tracer != nil {
		tf, err := os.Create(*traceOut)
		if err == nil {
			err = tracer.WriteJSON(tf)
			if cerr := tf.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(stderr, "bmc:", err)
			return 2
		}
		if !*jsonOut {
			fmt.Fprintf(stdout, "trace: %d spans written to %s\n", tracer.Len(), *traceOut)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(stderr, "bmc:", err)
			return 2
		}
		return exitCode(res.Verdict)
	}

	if *metricsOut {
		reg.WriteText(stdout)
	}
	if res.Telemetry != nil {
		res.Telemetry.WriteSummary(stdout)
	}
	if res.BaseTelemetry != nil {
		fmt.Fprintln(stdout, "base-case races:")
		res.BaseTelemetry.WriteSummary(stdout)
		fmt.Fprintln(stdout, "step-case races:")
		res.StepTelemetry.WriteSummary(stdout)
	}
	if res.Engine == engine.KInduction {
		fmt.Fprintf(stdout, "k-induction: %s at k=%d — base %d decisions, step %d decisions\n",
			res.Verdict, res.K, res.BaseStats.Decisions, res.StepStats.Decisions)
	} else {
		fmt.Fprintf(stdout, "verdict: %s (depth %d) in %s — %d decisions, %d implications, %d conflicts\n",
			res.Verdict, res.K, res.TotalTime.Round(time.Millisecond),
			res.Total.Decisions, res.Total.Implications, res.Total.Conflicts)
	}

	switch res.Verdict {
	case engine.Falsified:
		fmt.Fprintf(stdout, "counter-example of length %d found\n", res.K)
		if *witness && res.Trace != nil {
			printWitness(stdout, res.Trace)
		}
	case engine.Holds:
		fmt.Fprintf(stdout, "no counter-example up to depth %d\n", res.K)
	case engine.Proved:
		// The k-induction line above already says it all.
	default:
		fmt.Fprintln(stdout, "budget exhausted before a verdict")
	}
	return exitCode(res.Verdict)
}

// splitAddrs parses the -remote list, dropping empty entries.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// exitCode maps the verdict onto the documented process exit code.
func exitCode(v engine.Verdict) int {
	switch v {
	case engine.Falsified:
		return 1
	case engine.Holds, engine.Proved:
		return 0
	default:
		return 2
	}
}

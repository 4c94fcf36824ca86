// Command benchmark is the repository's benchmark: four deterministic
// workloads, each timed as the median over repeated passes, plus a traced
// run that attributes the time of a pass to the layers of the program.
// See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"text/tabwriter"
)

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the accepting pipeline reads: exactly these keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is a result with what a reader needs beside it.
type report struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	result
	// Samples describes the passes behind each timing.
	Samples  map[string]summary `json:"samples,omitempty"`
	Failures []string           `json:"failures,omitempty"`
	Checks   []checkReport      `json:"checks,omitempty"`
}

type checkReport struct {
	Name  string `json:"name"`
	Shape string `json:"shape"`
	outcome
}

type options struct {
	seed    uint64
	seconds float64
	trace   bool
	aa      bool
	smoke   bool
	outDir  string
}

func main() {
	var (
		o        options
		wlName   string
		traceInt int
	)
	flag.StringVar(&wlName, "workload", "all", "workload to run, or all")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the probe checks that join each workload's fixed anchors")
	flag.Float64Var(&o.seconds, "seconds", 30, "time box of the measured phase of each workload")
	flag.IntVar(&traceInt, "trace", 0, "0: end-to-end metrics from untraced passes; 1: per-layer metrics from traced passes")
	flag.BoolVar(&o.aa, "aa", false, "run the timed phase twice and fail unless each metric's two medians agree within half its bound")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny instances and two passes: exercises the pipeline, measures nothing")
	flag.StringVar(&o.outDir, "out", "", "directory to write one Chrome trace per workload into (with -trace 1)")
	flag.Parse()
	o.trace = traceInt != 0

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, wlName, o, os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run executes the selected workloads and prints their results: a table
// per workload on stderr, and on stdout the result line (one workload) or
// one JSON document with every report (all).
func run(ctx context.Context, wlName string, o options, stdout, stderr io.Writer) int {
	all := workloads(o.smoke)
	var reports []report
	for i, w := range all {
		if wlName != "all" && wlName != w.name {
			continue
		}
		probes, err := probesFor(w, i, o.seed)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		rep, err := runWorkload(ctx, w, probes, o)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			if errors.Is(err, errNondeterministic) {
				return 3
			}
			return 2
		}
		printTable(stderr, rep, o.trace)
		reports = append(reports, rep)
	}
	if len(reports) == 0 {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", wlName)
		return 2
	}
	enc := json.NewEncoder(stdout)
	var err error
	if wlName == "all" {
		err = enc.Encode(reports)
	} else {
		err = enc.Encode(reports[0].result)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	for _, r := range reports {
		if !r.Correct {
			return 1
		}
	}
	return 0
}

// runWorkload measures one workload: a memory pass and the timed phase
// for the end-to-end metrics, or (trace) a short timed phase followed by
// traced passes for the per-layer metrics; then the seed's probes.
func runWorkload(ctx context.Context, w, probes workload, o options) (report, error) {
	rep := report{Workload: w.name, Seed: o.seed, Trace: o.trace}
	cal := newCalibrator()
	fixed := 0
	if o.smoke {
		fixed = 2
	}
	box := o.seconds
	if o.trace {
		box *= timedShareOfTracedRun
	}
	ph, err := timedPhase(ctx, w, cal, box, fixed, !o.trace)
	if err != nil {
		return rep, err
	}
	failures, attempted := ph.failures()

	defs := endToEnd
	var values map[string]float64
	if o.trace {
		defs = perLayer
		var tf []string
		if values, tf, err = tracedPhase(ctx, w, o, ph); err != nil {
			return rep, err
		}
		failures = append(failures, tf...)
	} else if o.aa {
		again, err := timedPhase(ctx, w, cal, box, fixed, true)
		if err != nil {
			return rep, err
		}
		if err := sameOutcomes(w, "second phase", ph.passes[0].outcomes, again.passes[0].outcomes); err != nil {
			return rep, err
		}
		f2, a2 := again.failures()
		failures = append(failures, disagreements(ph.measured(), again.measured())...)
		failures, attempted = append(failures, f2...), attempted+a2
	}

	pf, pa, err := runProbes(ctx, probes)
	if err != nil {
		return rep, err
	}
	failures, attempted = append(failures, pf...), attempted+pa
	rep.Correct = len(failures) == 0
	rep.Attempted, rep.Failed = attempted, min(len(failures), attempted)
	rep.Failures = failures
	if !o.trace {
		values = ph.measured()
		values[mDecidedShare] = float64(attempted-rep.Failed) / float64(attempted)
		rep.Samples = map[string]summary{
			mVerdictS: summarize(ph.column(func(p pass) float64 { return p.verdictS })),
			mSetupS:   summarize(ph.column(func(p pass) float64 { return p.setupS })),
			mAllocMB:  summarize(ph.column(func(p pass) float64 { return p.allocMB })),
		}
	}
	rep.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		rep.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	for i, ck := range w.checks {
		rep.Checks = append(rep.Checks, checkReport{ck.name, ck.shape.String(), ph.passes[0].outcomes[i]})
	}
	return rep, nil
}

// measured reduces a phase to its gated measurements: medians over the
// timed passes, and the memory pass's peak.
func (ph phase) measured() map[string]float64 {
	return map[string]float64{
		mVerdictS:   median(ph.column(func(p pass) float64 { return p.verdictS })),
		mSetupS:     median(ph.column(func(p pass) float64 { return p.setupS })),
		mAllocMB:    median(ph.column(func(p pass) float64 { return p.allocMB })),
		mPeakHeapMB: ph.peakHeapMB,
	}
}

// disagreements is the A/A check: it lists the measurements that two
// phases of the same code put half their bound or more apart.
func disagreements(a, b map[string]float64) []string {
	var bad []string
	for _, d := range endToEnd {
		x, ok := a[d.Name]
		if !ok {
			continue
		}
		diff := (b[d.Name] - x) / x
		if diff < 0 {
			diff = -diff
		}
		if diff >= d.Bound/2 {
			bad = append(bad, fmt.Sprintf("aa: %s %.6g then %.6g: %.2f%% apart, half the bound is %.2f%%", d.Name, x, b[d.Name], 100*diff, 50*d.Bound))
		}
	}
	return bad
}

func printTable(w io.Writer, rep report, trace bool) {
	fmt.Fprintf(w, "\n%s  seed %d  correct=%v attempted=%d failed=%d\n", rep.Workload, rep.Seed, rep.Correct, rep.Attempted, rep.Failed)
	for _, f := range rep.Failures {
		fmt.Fprintln(w, "  FAILED", f)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, c := range rep.Checks {
		fmt.Fprintf(tw, "  %s\t%s\t%v/%d\tconflicts %d\tpropagations %d\tclauses %d\n", c.Name, c.Shape, c.Verdict, c.K, c.Conflicts, c.Propagations, c.Clauses)
	}
	tw.Flush()
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	fmt.Fprintln(tw, "  metric\tvalue\tunit\tbound\tpasses\tmin\tq1\tq3")
	for _, d := range defs {
		bound := "-"
		if d.Bound > 0 {
			bound = fmt.Sprintf("%.1f%%", 100*d.Bound)
		}
		if s, ok := rep.Samples[d.Name]; ok {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\t%d\t%.6g\t%.6g\t%.6g\n", d.Name, rep.Metrics[d.Name].Value, d.Unit, bound, s.N, s.Min, s.Q1, s.Q3)
		} else {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\t\t\t\t\n", d.Name, rep.Metrics[d.Name].Value, d.Unit, bound)
		}
	}
	tw.Flush()
}

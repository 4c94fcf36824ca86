// Command tablegen reruns the paper's evaluation and renders each artifact
// in the layout of the paper. -experiment names an entry of the
// experiments registry:
//
//	table1       Table 1  (the headline comparison)
//	fig6         Figure 6 (scatter panes)
//	fig7         Figure 7 (per-depth statistics; -model picks the model)
//	overhead     §3.1 CDG bookkeeping overhead
//	obs-overhead observability layer overhead (metrics+tracer)
//	ablation     §3.2 score-rule ablation
//	threshold    §3.3 switch-divisor sweep
//	timeaxis     related-work time-axis comparison
//	portfolio    concurrent portfolio vs single orderings
//	incremental  incremental vs scratch depth loop
//	warm         cold portfolio vs warm pool (BMC depth loop)
//	warm-kind    the same over the k-induction base/step pools
//	refine       conflicts under vsids vs the refined ordering, whole suite
//
// plus cdgmemory (§3.1 simplified vs complete CDG, measured below the
// engine) and all (everything).
//
// -csv switches the output to machine-readable CSV where available, -quick
// caps depths and budgets for a fast smoke run, and -budget sets the
// per-model wall-clock cap (the analogue of the paper's 2-hour timeout).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/experiments"
)

// validExperiments is the single source of the -experiment vocabulary:
// the flag's usage string and the unknown-name error both render it, the
// same ValidNames discipline portfolio.ParseSet applies to strategy sets.
func validExperiments() []string {
	var names []string
	for _, e := range experiments.All() {
		names = append(names, e.Name)
	}
	return append(names, "cdgmemory", "all")
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entrypoint.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tablegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp    = fs.String("experiment", "table1", "one of "+strings.Join(validExperiments(), "|"))
		budget = fs.Duration("budget", 20*time.Second, "per-(model,strategy) wall-clock budget")
		quick  = fs.Bool("quick", false, "cap depths for a fast smoke run")
		csv    = fs.Bool("csv", false, "emit CSV instead of the text table")
		model  = fs.String("model", bench.Fig7Model, "model for -experiment=fig7")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := experiments.Config{PerModelBudget: *budget, Repeats: 3}
	if *quick {
		cfg.DepthCap = 6
		cfg.PerModelBudget = 5 * time.Second
		cfg.PerInstanceConflicts = 50000
	}

	var selected []experiments.Experiment
	cdgMemory := false
	switch *exp {
	case "all":
		selected, cdgMemory = experiments.All(), true
	case "cdgmemory":
		cdgMemory = true
	default:
		e, ok := experiments.ByName(*exp)
		if !ok {
			fmt.Fprintf(stderr, "tablegen: unknown experiment %q (valid: %s)\n",
				*exp, strings.Join(validExperiments(), ", "))
			return 2
		}
		selected = []experiments.Experiment{e}
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "tablegen:", err)
		return 1
	}
	for _, e := range selected {
		if e.Name == "fig7" {
			var err error
			if e, err = experiments.Figure7(*model); err != nil {
				return fail(err)
			}
		}
		g, err := e.Run(context.Background(), cfg)
		if err != nil {
			return fail(err)
		}
		if *csv && e.WriteCSV != nil {
			e.WriteCSV(stdout, g)
		} else {
			e.Write(stdout, g)
		}
		if len(selected) > 1 {
			fmt.Fprintln(stdout)
		}
	}
	if cdgMemory {
		cfg.Models = experiments.OverheadModels()
		res, err := experiments.RunCDGMemory(cfg)
		if err != nil {
			return fail(err)
		}
		res.Write(stdout)
	}
	return 0
}

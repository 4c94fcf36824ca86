// Command bmcbench is the exact-regression gate's CLI: it runs a
// perfbench suite through the engine session API and writes the
// versioned BENCH_<suite>.json artifact, optionally comparing it against
// a committed baseline — verdict, depth, the cell set and the search
// counters of deterministic cells must match exactly; wall time and
// memory are recorded, not judged.
//
//	bmcbench run -suite=quick                      # write BENCH_quick.json
//	bmcbench run -suite=quick -baseline=baselines/BENCH_quick.json
//	bmcbench compare -baseline=old.json new.json   # diff two artifacts
//	bmcbench list                                  # suites and their cells
//
// Exit status: 0 on success, 1 when a comparison found a failing
// regression, 2 on usage or I/O errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/perfbench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entrypoint.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "run":
		return runSuite(args[1:], stdout, stderr)
	case "compare":
		return runCompare(args[1:], stdout, stderr)
	case "list":
		return runList(stdout)
	case "-h", "-help", "--help", "help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "bmcbench: unknown command %q\n", args[0])
		usage(stderr)
		return 2
	}
}

func usage(w io.Writer) {
	fmt.Fprintf(w, `usage: bmcbench <command> [flags]

commands:
  run      run a suite and write its BENCH_<suite>.json artifact
  compare  diff a current artifact against a baseline without running
  list     print the predefined suites and their cells

run 'bmcbench <command> -h' for the command's flags
`)
}

func runSuite(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bmcbench run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	suiteName := fs.String("suite", "quick",
		"suite to run: "+strings.Join(perfbench.SuiteNames(), "|"))
	out := fs.String("out", "", "artifact path (default BENCH_<suite>.json)")
	baseline := fs.String("baseline", "", "baseline artifact to compare against")
	verbose := fs.Bool("v", false, "print each cell as it finishes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	suite, ok := perfbench.SuiteByName(*suiteName)
	if !ok {
		fmt.Fprintf(stderr, "bmcbench: unknown suite %q (valid: %s)\n",
			*suiteName, strings.Join(perfbench.SuiteNames(), ", "))
		return 2
	}
	progress := func(c perfbench.CellResult) {
		if *verbose {
			fmt.Fprintf(stdout, "%-32s %-10s k=%-3d conflicts=%-9d wall=%s\n",
				c.Key(), c.Verdict, c.K, c.Counters["conflicts"], time.Duration(c.WallNanos))
		}
	}
	art, err := perfbench.Run(context.Background(), suite, progress)
	if err != nil {
		fmt.Fprintf(stderr, "bmcbench: %v\n", err)
		return 2
	}
	path := *out
	if path == "" {
		path = "BENCH_" + suite.Name + ".json"
	}
	if err := art.WriteFile(path); err != nil {
		fmt.Fprintf(stderr, "bmcbench: write %s: %v\n", path, err)
		return 2
	}
	fmt.Fprintf(stdout, "wrote %s (%d cells)\n", path, len(art.Cells))
	if *baseline == "" {
		return 0
	}
	base, err := perfbench.ReadArtifact(*baseline)
	if err != nil {
		fmt.Fprintf(stderr, "bmcbench: %v\n", err)
		return 2
	}
	return report(perfbench.Compare(base, art), stdout)
}

func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bmcbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baseline := fs.String("baseline", "", "baseline artifact (required)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *baseline == "" || fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: bmcbench compare -baseline=old.json current.json")
		return 2
	}
	base, err := perfbench.ReadArtifact(*baseline)
	if err != nil {
		fmt.Fprintf(stderr, "bmcbench: %v\n", err)
		return 2
	}
	cur, err := perfbench.ReadArtifact(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "bmcbench: %v\n", err)
		return 2
	}
	return report(perfbench.Compare(base, cur), stdout)
}

// report renders the findings table and maps it to an exit status.
func report(findings []perfbench.Finding, stdout io.Writer) int {
	perfbench.WriteFindings(stdout, findings)
	if perfbench.HasFailure(findings) {
		fmt.Fprintln(stdout, "regression detected (see FAIL rows above)")
		return 1
	}
	return 0
}

func runList(stdout io.Writer) int {
	for _, s := range perfbench.Suites() {
		fmt.Fprintf(stdout, "%s (%d cells)\n", s.Name, len(s.Cells))
		for _, c := range s.Cells {
			extra := ""
			if c.MaxDepth > 0 {
				extra = fmt.Sprintf(" depth<=%d", c.MaxDepth)
			}
			if c.Conflicts > 0 {
				extra += fmt.Sprintf(" conflicts<=%d", c.Conflicts)
			}
			fmt.Fprintf(stdout, "  %-24s %s%s\n", c.Model, c.Shape, extra)
		}
	}
	return 0
}

package perfbench

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/experiments"
)

// Finding is one divergence between baseline and current.
type Finding struct {
	Cell     string `json:"cell"`
	Metric   string `json:"metric"`
	Baseline int64  `json:"baseline"`
	Current  int64  `json:"current"`
	// Fail marks findings that make the comparison exit nonzero;
	// non-fail findings are warnings.
	Fail   bool   `json:"fail"`
	Detail string `json:"detail,omitempty"`
}

// Compare diffs current against baseline: verdict and K compare exactly,
// as do the search counters of cells both sides mark deterministic, and a
// baseline cell missing from current fails. Nothing else is judged — wall
// time and memory are noisy by nature and stay recorded only. Findings
// come back sorted: failures first, then by cell and metric.
func Compare(baseline, current *Artifact) []Finding {
	var fs []Finding
	cur := map[string]*CellResult{}
	for i := range current.Cells {
		cur[current.Cells[i].Key()] = &current.Cells[i]
	}
	seen := map[string]bool{}
	for i := range baseline.Cells {
		b := &baseline.Cells[i]
		seen[b.Key()] = true
		c, ok := cur[b.Key()]
		if !ok {
			fs = append(fs, Finding{Cell: b.Key(), Metric: "cell", Fail: true,
				Detail: "cell present in baseline but missing from this run"})
			continue
		}
		fs = append(fs, compareCell(b, c)...)
	}
	for i := range current.Cells {
		if c := &current.Cells[i]; !seen[c.Key()] {
			fs = append(fs, Finding{Cell: c.Key(), Metric: "cell",
				Detail: "new cell, absent from baseline (refresh it to start tracking)"})
		}
	}
	sort.SliceStable(fs, func(i, j int) bool {
		if fs[i].Fail != fs[j].Fail {
			return fs[i].Fail
		}
		if fs[i].Cell != fs[j].Cell {
			return fs[i].Cell < fs[j].Cell
		}
		return fs[i].Metric < fs[j].Metric
	})
	return fs
}

// compareCell diffs one cell pair.
func compareCell(b, c *CellResult) []Finding {
	var fs []Finding
	key := b.Key()
	if b.Verdict != c.Verdict {
		fs = append(fs, Finding{Cell: key, Metric: "verdict", Fail: true,
			Detail: fmt.Sprintf("verdict %s -> %s", b.Verdict, c.Verdict)})
	}
	if b.K != c.K {
		fs = append(fs, Finding{Cell: key, Metric: "k",
			Baseline: int64(b.K), Current: int64(c.K), Fail: true,
			Detail: fmt.Sprintf("depth %d -> %d", b.K, c.K)})
	}
	if b.Deterministic && c.Deterministic {
		for _, name := range sortedCounterNames(b.Counters) {
			bv := b.Counters[name]
			cv, ok := c.Counters[name]
			if !ok {
				fs = append(fs, Finding{Cell: key, Metric: name, Baseline: bv, Fail: true,
					Detail: "counter missing from this run"})
				continue
			}
			if cv != bv {
				fs = append(fs, Finding{Cell: key, Metric: name, Baseline: bv, Current: cv, Fail: true,
					Detail: fmt.Sprintf("deterministic counter changed by %+d", cv-bv)})
			}
		}
	}
	return fs
}

// HasFailure reports whether any finding is a failure.
func HasFailure(fs []Finding) bool {
	for _, f := range fs {
		if f.Fail {
			return true
		}
	}
	return false
}

// WriteFindings renders the regression table: one row per finding,
// failures marked FAIL, warnings warn.
func WriteFindings(w io.Writer, fs []Finding) {
	if len(fs) == 0 {
		fmt.Fprintln(w, "no divergence from baseline")
		return
	}
	const width = 78
	experiments.WriteRule(w, width)
	fmt.Fprintf(w, "%-4s  %-28s %-24s %12s %12s\n", "", "cell", "metric", "baseline", "current")
	experiments.WriteRule(w, width)
	for _, f := range fs {
		sev := "warn"
		if f.Fail {
			sev = "FAIL"
		}
		fmt.Fprintf(w, "%-4s  %-28s %-24s %12d %12d\n", sev, f.Cell, f.Metric, f.Baseline, f.Current)
		if f.Detail != "" {
			fmt.Fprintf(w, "      %s\n", f.Detail)
		}
	}
	experiments.WriteRule(w, width)
}

// sortedCounterNames returns the map's keys sorted.
func sortedCounterNames(m map[string]int64) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

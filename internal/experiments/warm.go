package experiments

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/portfolio"
)

// --- warm pool ablations: cold portfolio vs warm pool ---

// coldWarm is the column pair of both warm ablations: the
// per-depth-rebuild portfolio against the warm racer pool
// (engine.WithIncremental), on top of the given base options. A positive
// conflicts caps each SAT call; it tightens the Config's per-instance
// budget, never loosens it.
func coldWarm(conflicts int64, base ...engine.Option) []Column {
	capped := func(c *engine.Config) {
		c.PerInstanceConflicts = tighten(c.PerInstanceConflicts, conflicts)
	}
	col := func(name string, extra ...engine.Option) Column {
		return fixed(name, slices.Concat(base,
			[]engine.Option{engine.WithPortfolio(portfolio.DefaultSet(), 0), capped}, extra)...)
	}
	return []Column{
		col("cold"),
		col("warm", engine.WithIncremental()),
	}
}

// warmAblation runs the pair over the BMC depth loop.
func warmAblation() Experiment {
	return Experiment{Name: "warm", Models: AblationModels(), Columns: coldWarm(0),
		Write: func(w io.Writer, g *Grid) { writeColdWarm(w, g, false) }}
}

// warmKindAblation runs the pair over the k-induction base and step
// pools. The per-instance conflict cap never binds a race winner
// (hundreds of conflicts on these models) — it only cuts the tail of
// doomed losers hunting models after the verdict is already in reach,
// which would otherwise drown the comparison in SAT-search lottery noise.
func warmKindAblation() Experiment {
	return Experiment{Name: "warm-kind", Models: KindAblationModels(),
		Columns: coldWarm(3000, engine.WithEngine(engine.KInduction)),
		Write:   func(w io.Writer, g *Grid) { writeColdWarm(w, g, true) }}
}

// KindAblationModels returns the k-induction ablation subset: immediately
// inductive rows (the warm step pool's one-shot UNSAT regime), a deeper-k
// inductive row where the simple-path constraint has to accumulate, a
// conflict-heavy inductive adder, and falsified rows at several depths
// (the base pool's BMC-like regime — every depth before the failure is an
// UNSAT base instance, with the step race aborted at the failing depth).
func KindAblationModels() []bench.Model {
	models := subset([]string{
		"twin_w10", "gcnt_m12", "add_w4",
		"tlc_bug", "arb_5_bug", "fifo_c6_bug", "lock_s8", "pipe_s5_bug",
	})
	// Two models beyond the 37-row BMC suite. The deeper buggy pipeline is
	// the conflict-heavy multi-depth regime (seven UNSAT base depths
	// before the failure) where the warm base pool's clause database has
	// room to compound; the offset-counter invariant (true, but only
	// k=2-inductive under the simple-path constraint) exercises the regime
	// where the step pool stays warm across depths.
	models = append(models,
		bench.Model{
			Name: "pipe_s7_bug", MaxDepth: 12,
			Build: func() *circuit.Circuit { return bench.Pipeline(7, 10, true) },
		},
		bench.Model{
			Name: "gcnt_offset", MaxDepth: 8,
			Build: func() *circuit.Circuit { return bench.OffsetCounter(4, 10, 12) },
		})
	return models
}

// writeColdWarm renders a cold/warm grid. Conflicts are spentConflicts —
// every racer of every query, since the pools' whole point is turning
// loser conflicts into reusable work. The BMC table tags rows T/F and
// tallies the UNSAT-heavy rows (where warm databases should pay); the
// k-induction table shows the cold engine's verdict (all engines must
// agree) and tallies every row.
func writeColdWarm(w io.Writer, g *Grid, kind bool) {
	title := "Warm racer pool vs cold portfolio (persistent per-strategy solvers; conflicts count ALL racers)"
	tagHead, tagWidth, tallied := "T/F", 4, "UNSAT-heavy rows"
	if kind {
		title = "Warm k-induction pools vs cold portfolio (persistent base+step racers; conflicts count ALL racers of BOTH queries)"
		tagHead, tagWidth, tallied = "verdict", 12, "rows"
	}
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-16s %-*s %9s %9s %11s %11s %6s\n", "model", tagWidth, tagHead,
		"cold (s)", "warm (s)", "conf.cold", "conf.warm", "agree")
	width := 16 + 1 + tagWidth + 2*10 + 2*12 + 7
	writeRule(w, width)
	var rows, fewer int
	for i, m := range g.Models {
		cold, warm := g.Cells[i][0], g.Cells[i][1]
		tag := tf(m)
		if kind {
			tag = "unknown"
			if cold.Verdict != engine.Unknown {
				tag = fmt.Sprintf("%s@%d", cold.Verdict, cold.K)
			}
		}
		fmt.Fprintf(w, "%-16s %-*s %9s %9s %11d %11d %6s\n", m.Name, tagWidth, tag,
			fmtDuration(cold.TotalTime), fmtDuration(warm.TotalTime),
			spentConflicts(cold), spentConflicts(warm), agree(g, i))
		if kind || !m.ExpectFail {
			rows++
			if spentConflicts(warm) < spentConflicts(cold) {
				fewer++
			}
		}
	}
	writeRule(w, width)
	confCold, confWarm := g.Total(0, spentConflicts), g.Total(1, spentConflicts)
	fmt.Fprintf(w, "%-16s %-*s %9s %9s %11d %11d\n", "TOTAL", tagWidth, "",
		fmtDuration(g.TotalTime(0)), fmtDuration(g.TotalTime(1)), confCold, confWarm)
	if confCold > 0 {
		fmt.Fprintf(w, "total conflicts vs cold: warm %.0f%%\n", 100*float64(confWarm)/float64(confCold))
	}
	fmt.Fprintf(w, "%s where warm spends fewer conflicts than cold: %d/%d\n", tallied, fewer, rows)
	writeDisagreements(w, g)
}

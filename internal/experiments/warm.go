package experiments

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/portfolio"
	"repro/internal/racer"
)

// --- warm pool ablations: cold portfolio vs warm pool vs warm+sharing ---

// coldWarmShared is the column triple of both warm ablations: the
// per-depth-rebuild portfolio against the warm racer pool without and
// with the clause-exchange bus (engine.WithIncremental + WithExchange),
// on top of the given base options. A positive conflicts caps each SAT
// call; it tightens the Config's per-instance budget, never loosens it.
func coldWarmShared(conflicts int64, base ...engine.Option) []Column {
	capped := func(c *engine.Config) {
		c.PerInstanceConflicts = tighten(c.PerInstanceConflicts, conflicts)
	}
	col := func(name string, extra ...engine.Option) Column {
		return fixed(name, slices.Concat(base,
			[]engine.Option{engine.WithPortfolio(portfolio.DefaultSet(), 0), capped}, extra)...)
	}
	bus := func(share bool) engine.Option {
		return engine.WithExchange(racer.ExchangeOptions{Enabled: share})
	}
	return []Column{
		col("cold"),
		col("warm", engine.WithIncremental(), bus(false)),
		col("shared", engine.WithIncremental(), bus(true)),
	}
}

// warmAblation runs the triple over the BMC depth loop.
func warmAblation() Experiment {
	return Experiment{Name: "warm", Models: AblationModels(), Columns: coldWarmShared(0),
		Write: func(w io.Writer, g *Grid) { writeColdWarmShared(w, g, false) }}
}

// warmKindAblation runs the triple over the k-induction base and step
// pools. The per-instance conflict cap never binds a race winner
// (hundreds of conflicts on these models) — it only cuts the tail of
// doomed losers hunting models after the verdict is already in reach,
// which would otherwise drown the comparison in SAT-search lottery noise.
func warmKindAblation() Experiment {
	return Experiment{Name: "warm-kind", Models: KindAblationModels(),
		Columns: coldWarmShared(3000, engine.WithEngine(engine.KInduction)),
		Write:   func(w io.Writer, g *Grid) { writeColdWarmShared(w, g, true) }}
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

// writeColdWarmShared renders a cold/warm/shared grid. Conflicts are
// spentConflicts — every racer of every query, since the pools' whole
// point is turning loser conflicts into reusable work. The BMC table
// tags rows T/F, shows the shared run's imported bus volume and tallies
// the UNSAT-heavy rows (where warm databases and sharing should pay);
// the k-induction table shows the cold engine's verdict (all engines
// must agree) and tallies every row.
func writeColdWarmShared(w io.Writer, g *Grid, kind bool) {
	title := "Warm racer pool vs cold portfolio (persistent per-strategy solvers; conflicts count ALL racers)"
	tagHead, tagWidth, tallied := "T/F", 4, "UNSAT-heavy rows"
	if kind {
		title = "Warm k-induction pools vs cold portfolio (persistent base+step racers; conflicts count ALL racers of BOTH queries)"
		tagHead, tagWidth, tallied = "verdict", 12, "rows"
	}
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-16s %-*s %9s %9s %9s %11s %11s %11s", "model", tagWidth, tagHead,
		"cold (s)", "warm (s)", "shared(s)", "conf.cold", "conf.warm", "conf.shared")
	width := 16 + 1 + tagWidth + 3*10 + 3*12 + 7
	if !kind {
		fmt.Fprintf(w, " %9s", "bus")
		width += 10
	}
	fmt.Fprintf(w, " %6s\n", "agree")
	writeRule(w, width)
	var rows, fewer int
	for i, m := range g.Models {
		cold, warm, shared := g.Cells[i][0], g.Cells[i][1], g.Cells[i][2]
		tag := tf(m)
		if kind {
			tag = "unknown"
			if cold.Verdict != engine.Unknown {
				tag = fmt.Sprintf("%s@%d", cold.Verdict, cold.K)
			}
		}
		fmt.Fprintf(w, "%-16s %-*s %9s %9s %9s %11d %11d %11d", m.Name, tagWidth, tag,
			fmtDuration(cold.TotalTime), fmtDuration(warm.TotalTime), fmtDuration(shared.TotalTime),
			spentConflicts(cold), spentConflicts(warm), spentConflicts(shared))
		if !kind {
			var imported int64
			for _, n := range shared.Telemetry.ImportedClauses {
				imported += n
			}
			fmt.Fprintf(w, " %9d", imported)
		}
		fmt.Fprintf(w, " %6s\n", agree(g, i))
		if kind || !m.ExpectFail {
			rows++
			if spentConflicts(shared) < spentConflicts(cold) {
				fewer++
			}
		}
	}
	writeRule(w, width)
	confCold, confWarm, confShared := g.Total(0, spentConflicts), g.Total(1, spentConflicts), g.Total(2, spentConflicts)
	fmt.Fprintf(w, "%-16s %-*s %9s %9s %9s %11d %11d %11d\n", "TOTAL", tagWidth, "",
		fmtDuration(g.TotalTime(0)), fmtDuration(g.TotalTime(1)), fmtDuration(g.TotalTime(2)),
		confCold, confWarm, confShared)
	if confCold > 0 {
		fmt.Fprintf(w, "total conflicts vs cold: warm %.0f%%, warm+sharing %.0f%%\n",
			100*float64(confWarm)/float64(confCold), 100*float64(confShared)/float64(confCold))
	}
	fmt.Fprintf(w, "%s where warm+sharing spends fewer conflicts than cold: %d/%d\n", tallied, fewer, rows)
	writeDisagreements(w, g)
}

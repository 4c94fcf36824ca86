package remote

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lits"
	"repro/internal/obs"
	"repro/internal/portfolio"
	"repro/internal/racer"
	"repro/internal/sat"
	"repro/internal/unroll"
)

// solverTables returns where each per-variable and per-literal table of s
// keeps its elements (0 for one that is not allocated).
func solverTables(s *sat.Solver) map[string]uintptr {
	out := make(map[string]uintptr)
	for _, name := range []string{
		"watches.lists", "vals", "reason", "level", "trail",
		"chaScore", "newCount", "seen", "heap.heap", "heap.pos",
	} {
		v := reflect.ValueOf(s).Elem()
		for _, field := range strings.Split(name, ".") {
			if v.Kind() == reflect.Pointer {
				v = v.Elem()
			}
			v = v.FieldByName(field)
		}
		out[name] = v.Pointer()
	}
	return out
}

// storageMoves counts, per strategy and storage, how often the storage was
// found somewhere new.
type storageMoves struct {
	mu    sync.Mutex
	at    map[string]uintptr
	moves map[string]int
}

func newStorageMoves() *storageMoves {
	return &storageMoves{at: make(map[string]uintptr), moves: make(map[string]int)}
}

func (w *storageMoves) solver(name string, s *sat.Solver, guidance []float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	note := func(storage string, at uintptr) {
		if at != 0 && at != w.at[storage] {
			w.moves[storage]++
			w.at[storage] = at
		}
	}
	note(name+" guidance", reflect.ValueOf(guidance).Pointer())
	for table, at := range solverTables(s) {
		note(name+" "+table, at)
	}
}

// localWatch runs races in process and records where each solver a race
// handed out keeps its tables.
type localWatch struct {
	engine.LocalExecutor
	*storageMoves
}

func (w localWatch) RaceLive(q engine.Query, attempts []portfolio.LiveAttempt, assumps []lits.Lit, jobs int, stop <-chan struct{}) portfolio.RaceResult {
	wrapped := slices.Clone(attempts)
	for i, a := range attempts {
		wrapped[i].Solver = func() *sat.Solver {
			s := a.Solver()
			w.solver(a.Name, s, a.Opts.Guidance)
			return s
		}
	}
	return w.LocalExecutor.RaceLive(q, wrapped, assumps, jobs, stop)
}

// TestMirrorStorageGrowsLogarithmically is engine's
// TestWarmStorageGrowsLogarithmically on a loopback worker's mirrors: they
// are sized ahead by the hint the coordinator's pool sends with each race,
// by the rule the pool's own racers grow by. Over incremental_deep's
// 20-depth mix_w8 check a mirror's per-variable and per-literal tables and
// its guidance array move no more often than a local racer's, at most
// ⌈log₂ 21⌉+1 = 6 times (unhinted, the watch table moved at nearly every
// depth). And a mirror that never searches holds nothing: raced one
// attempt at a time, the portfolio's first strategy decides every depth,
// and only its mirror holds a solver or a guidance array.
func TestMirrorStorageGrowsLogarithmically(t *testing.T) {
	const depth, maxMoves = 20, 6
	check := func(c *circuit.Circuit, depth int, ex engine.Executor, opts ...engine.Option) {
		t.Helper()
		sess, err := engine.New(c, 0, append(opts, engine.WithBudgets(depth, 0), engine.WithIncremental(), engine.WithExecutor(ex))...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Check(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	// loopback runs the check on a one-worker loopback fleet whose worker
	// shows every live race's mirrors to see.
	loopback := func(see func(name string, m *mirror)) engine.Executor {
		w := NewWorker(WorkerOptions{})
		w.afterRace = func(q *workerQuery) {
			for name, m := range q.mirrors {
				see(name, m)
			}
		}
		e, err := newLoopback(1, fastOpts(), w, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		return e
	}

	mixer := bench.ParityMixer(8, 3, 12)
	local := newStorageMoves()
	check(mixer, depth, localWatch{storageMoves: local}, engine.WithOrdering(core.OrderDynamic))
	remote := newStorageMoves()
	check(mixer, depth, loopback(func(name string, m *mirror) {
		if m.feed.Solver != nil {
			remote.solver(name, m.feed.Solver, m.guidance)
		}
	}), engine.WithOrdering(core.OrderDynamic))
	t.Logf("local racer's allocations by storage: %v", local.moves)
	t.Logf("mirror's allocations by storage: %v", remote.moves)
	for _, storage := range []string{"dynamic guidance", "dynamic watches.lists", "dynamic reason", "dynamic heap.pos"} {
		if remote.moves[storage] == 0 {
			t.Fatalf("%s never seen: the watch looks at the wrong storage (%v)", storage, remote.moves)
		}
	}
	for storage, n := range remote.moves {
		if n > maxMoves || n > local.moves[storage] {
			t.Errorf("mirror's %s allocated %d times over %d depths, the local racer's %d; want at most that and at most %d",
				storage, n, depth, local.moves[storage], maxMoves)
		}
	}

	names := portfolio.DefaultSet().Names()
	held := map[string]bool{}
	check(bench.GatedCounter(3, 5, 1, 4), 8, loopback(func(name string, m *mirror) {
		if m.feed.Solver != nil || m.guidance != nil {
			held[name] = true
		}
	}), engine.WithPortfolio(portfolio.DefaultSet(), 1))
	for i, name := range names {
		if held[name] != (i == 0) {
			t.Errorf("mirror %d (%s) held a solver or guidance: %v; want the first one only", i, name, held[name])
		}
	}
}

// clausesReachable counts the non-empty clauses reachable from v — a
// clause slice, or a clause of a flat formula — through pointers,
// interfaces, structs (unexported fields too), slices, arrays and maps,
// each pointer followed once — not looking into a value skip matches, a
// function or a channel.
func clausesReachable(v reflect.Value, skip func(reflect.Value) bool) int {
	clauseType, formulaType := reflect.TypeOf(cnf.Clause{}), reflect.TypeOf(cnf.Formula{})
	type visit struct {
		at  uintptr
		typ reflect.Type
	}
	seen := make(map[visit]bool)
	var walk func(v reflect.Value) int
	walk = func(v reflect.Value) int {
		if !v.IsValid() || skip(v) {
			return 0
		}
		n := 0
		switch v.Kind() {
		case reflect.Pointer, reflect.Interface:
			if v.IsNil() {
				return 0
			}
			if v.Kind() == reflect.Pointer {
				at := visit{v.Pointer(), v.Type()}
				if seen[at] {
					return 0
				}
				seen[at] = true
			}
			n = walk(v.Elem())
		case reflect.Struct:
			if v.Type() == formulaType {
				ends, lo := v.FieldByName("Ends"), int64(0)
				for i := range ends.Len() {
					if hi := ends.Index(i).Int(); hi > lo {
						n, lo = n+1, hi
					}
				}
				return n
			}
			for i := range v.NumField() {
				n += walk(v.Field(i))
			}
		case reflect.Slice, reflect.Array:
			if v.Type() == clauseType {
				if v.Len() > 0 {
					return 1
				}
				return 0
			}
			if k := v.Type().Elem().Kind(); k <= reflect.Complex128 || k == reflect.String {
				return 0 // no clause inside a slice of numbers
			}
			for i := range v.Len() {
				n += walk(v.Index(i))
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				n += walk(it.Key()) + walk(it.Value())
			}
		}
		return n
	}
	return walk(v)
}

// TestNoFrameHistory: neither end of a link keeps a frame. After the
// fleet_wire check — mix_w8 to depth 20 on a warm portfolio, one worker
// slot — the coordinator's executor reaches no clause,
// its pool encoded no frame, and at the end of every race the worker's
// query holds its circuit, its source and its mirrors, and reaches no
// clause past the mirrors' solvers.
func TestNoFrameHistory(t *testing.T) {
	m := equivalenceModel(t, "mix_w8")
	u, err := unroll.New(m.Build(), 0)
	if err != nil {
		t.Fatal(err)
	}
	held := racer.NewDepthFrames(racer.DeltaSource(u.Delta()), 0)
	held.Frame(0)
	if n, want := clausesReachable(reflect.ValueOf(held), func(reflect.Value) bool { return false }), held.Frame(0).NumClauses(); n != want {
		t.Fatalf("the walk finds %d of a held frame's %d clauses", n, want)
	}

	var races int
	w := NewWorker(WorkerOptions{})
	mirrors := reflect.TypeOf(map[string]*mirror{})
	w.afterRace = func(q *workerQuery) {
		races++
		if q.u == nil || q.src == nil {
			t.Errorf("race %d: the query holds more than its circuit, source and mirrors: %+v", races, q)
		}
		if n := clausesReachable(reflect.ValueOf(q), func(v reflect.Value) bool { return v.Type() == mirrors }); n != 0 {
			t.Errorf("race %d: the query reaches %d clauses outside its mirrors", races, n)
		}
	}
	e, err := newLoopback(1, fastOpts(), w, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	reg := obs.NewRegistry()
	res := checkWith(t, m, engine.WithBudgets(20, 0), engine.WithPortfolio(nil, 1),
		engine.WithIncremental(),
		engine.WithExecutor(e), engine.WithMetrics(reg))
	if res.Verdict != engine.Holds || res.K != 20 || races != 21 {
		t.Fatalf("check: %v@%d over %d remote races, want holds@20 over 21", res.Verdict, res.K, races)
	}
	if n := reg.Snapshot().Counters[obs.Name("unroll_frames_total", "query", "bmc")]; n != 0 {
		t.Errorf("the coordinator encoded %d frames for races that all ran on the worker", n)
	}
	e.Close() // joins the link goroutines, which the walk would race with
	if n := clausesReachable(reflect.ValueOf(e), func(reflect.Value) bool { return false }); n != 0 {
		t.Errorf("the executor reaches %d clauses after the check", n)
	}
}

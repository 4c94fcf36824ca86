package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// opRef is one blocking operation recorded in a lock summary: a short
// description and the rendered source position of the op itself, so a
// diagnostic at a call site can name what happens behind the call.
type opRef struct {
	desc string
	pos  string
}

// lockSummary is one function's lock behavior as seen by its callers in
// the same package: the lock keys it (transitively) acquires, and the
// channel sends and solver calls it (transitively) performs — the ops
// that must not run under a held lock.
type lockSummary struct {
	acquires map[string]bool
	sends    map[opRef]bool
	solves   map[opRef]bool
}

// LockOrder builds each package's lock-acquisition graph over named
// sync.Mutex/RWMutex fields and package-level mutexes, reporting
// acquisition-order cycles (potential deadlocks), channel sends under a
// held lock, and solver calls under a held lock.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "builds each package's lock-acquisition graph over sync.Mutex/RWMutex " +
		"struct fields and package-level mutexes, with calls to functions of the same " +
		"package folded in through their lock summaries; a cycle in the graph is a " +
		"potential deadlock and a finding, and channel sends or sat.Solver " +
		"Solve/SolveAssuming calls while any lock is held are flagged as " +
		"blocking-under-lock hazards",
	Run: runLockOrder,
}

// lockKey renders the identity of a mutex: "pkgpath:Type.field" for a
// struct field, "pkgpath:var" for a package-level mutex. Local mutex
// variables have no cross-function identity and return "".
func lockKey(pass *Pass, recv ast.Expr) string {
	switch x := ast.Unparen(recv).(type) {
	case *ast.SelectorExpr:
		v, ok := pass.TypesInfo.Uses[x.Sel].(*types.Var)
		if !ok || v.Pkg() == nil {
			return ""
		}
		if v.IsField() {
			if tv, ok := pass.TypesInfo.Types[x.X]; ok {
				if n := namedFrom(tv.Type); n != nil {
					return v.Pkg().Path() + ":" + n.Obj().Name() + "." + v.Name()
				}
			}
			return ""
		}
		// pkg.GlobalMu
		if v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + ":" + v.Name()
		}
	case *ast.Ident:
		v, ok := pass.TypesInfo.Uses[x].(*types.Var)
		if !ok || v.Pkg() == nil {
			return ""
		}
		if v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + ":" + v.Name()
		}
	}
	return ""
}

func newLockSummary() *lockSummary {
	return &lockSummary{acquires: map[string]bool{}, sends: map[opRef]bool{}, solves: map[opRef]bool{}}
}

func (s *lockSummary) size() int { return len(s.acquires) + len(s.sends) + len(s.solves) }

func (s *lockSummary) merge(o *lockSummary) {
	for k := range o.acquires {
		s.acquires[k] = true
	}
	for op := range o.sends {
		s.sends[op] = true
	}
	for op := range o.solves {
		s.solves[op] = true
	}
}

// lockEdge records that the to lock was acquired while from was held,
// at pos, so cycle findings can be reported at the closing edge.
type lockEdge struct {
	from, to string
	pos      token.Pos
}

// lockWalker performs the defer-aware, source-order held-lock walk over
// one function body. Branch bodies see the held set of their entry
// point; the set is immutable (every change allocates), so branches
// cannot corrupt their siblings' view. sums holds a summary for every
// function declared in the package, and only for those.
type lockWalker struct {
	pass   *Pass
	sums   map[*types.Func]*lockSummary
	report bool
	cur    *lockSummary
	edges  []lockEdge
}

func (w *lockWalker) pos(p token.Pos) string { return w.pass.Fset.Position(p).String() }

// lockOp classifies a call as a lock ("lock"/"unlock") on a keyed
// mutex, returning op == "" for anything else.
func (w *lockWalker) lockOp(call *ast.CallExpr) (key, op string) {
	callee := calleeFunc(w.pass.TypesInfo, call)
	if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "sync" {
		return "", ""
	}
	recv := callee.Signature().Recv()
	if recv == nil {
		return "", ""
	}
	n := namedFrom(recv.Type())
	if n == nil || (n.Obj().Name() != "Mutex" && n.Obj().Name() != "RWMutex") {
		return "", ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch callee.Name() {
	case "Lock", "RLock":
		return lockKey(w.pass, sel.X), "lock"
	case "Unlock", "RUnlock":
		return lockKey(w.pass, sel.X), "unlock"
	}
	return "", ""
}

// call handles one non-lock call expression under the given held set:
// solver-call detection plus callee-summary folding.
func (w *lockWalker) call(x *ast.CallExpr, held []string) {
	callee := calleeFunc(w.pass.TypesInfo, x)
	if callee == nil || callee.Pkg() == nil {
		return
	}
	if (callee.Name() == "Solve" || callee.Name() == "SolveAssuming") && callee.Signature().Recv() != nil &&
		isNamedType(callee.Signature().Recv().Type(), "internal/sat", "Solver") {
		op := opRef{desc: "(*sat.Solver)." + callee.Name(), pos: w.pos(x.Pos())}
		w.cur.solves[op] = true
		if w.report && len(held) > 0 {
			w.pass.Reportf(x.Pos(), "%s called while holding %s; solver calls can block indefinitely — release the lock first", op.desc, held[len(held)-1])
		}
		return
	}

	sum, local := w.sums[callee]
	if !local {
		return
	}
	w.cur.merge(sum)
	if !w.report || len(held) == 0 {
		return
	}
	for acq := range sum.acquires {
		for _, h := range held {
			if h != acq {
				w.edges = append(w.edges, lockEdge{from: h, to: acq, pos: x.Pos()})
			}
		}
	}
	for op := range sum.sends {
		w.pass.Reportf(x.Pos(), "call to %s performs a channel send (%s) while holding %s; a blocked send deadlocks every contender for the lock", callee.Name(), op.pos, held[len(held)-1])
	}
	for op := range sum.solves {
		w.pass.Reportf(x.Pos(), "call to %s reaches %s (%s) while holding %s; solver calls can block indefinitely — release the lock first", callee.Name(), op.desc, op.pos, held[len(held)-1])
	}
}

// exprs scans expressions for calls, without descending into function
// literals (their bodies run later, in their own context).
func (w *lockWalker) exprs(held []string, exprs ...ast.Expr) {
	for _, e := range exprs {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncLit:
				w.lit(x)
				return false
			case *ast.CallExpr:
				if _, op := w.lockOp(x); op == "" {
					w.call(x, held)
				}
			}
			return true
		})
	}
}

// lit walks a function literal's body as a fresh context: it does not
// inherit the enclosing held set (it runs later — as a goroutine, a
// callback, a defer), and its behavior is not folded into the enclosing
// function's summary. Direct violations inside it still report.
func (w *lockWalker) lit(x *ast.FuncLit) {
	saved := w.cur
	w.cur = newLockSummary()
	w.block(x.Body.List, nil)
	w.cur = saved
}

func (w *lockWalker) block(stmts []ast.Stmt, held []string) []string {
	for _, s := range stmts {
		held = w.stmt(s, held)
	}
	return held
}

func (w *lockWalker) stmt(s ast.Stmt, held []string) []string {
	switch x := s.(type) {
	case *ast.ExprStmt:
		if call, ok := x.X.(*ast.CallExpr); ok {
			if key, op := w.lockOp(call); op != "" {
				if key == "" {
					return held // local mutex: no cross-function identity
				}
				if op == "lock" {
					w.cur.acquires[key] = true
					if w.report {
						for _, h := range held {
							if h != key {
								w.edges = append(w.edges, lockEdge{from: h, to: key, pos: call.Pos()})
							}
						}
					}
					return append(held[:len(held):len(held)], key)
				}
				return removeLock(held, key)
			}
		}
		w.exprs(held, x.X)
		return held
	case *ast.SendStmt:
		op := opRef{desc: "channel send", pos: w.pos(x.Arrow)}
		w.cur.sends[op] = true
		if w.report && len(held) > 0 {
			w.pass.Reportf(x.Arrow, "channel send while holding %s; a blocked send deadlocks every contender for the lock", held[len(held)-1])
		}
		w.exprs(held, x.Chan, x.Value)
		return held
	case *ast.DeferStmt:
		if _, op := w.lockOp(x.Call); op != "" {
			// defer mu.Unlock(): the lock stays held for the remainder of
			// the source-order walk, which is exactly the conservative
			// model; defer mu.Lock() is nonsense and ignored.
			return held
		}
		w.exprs(held, x.Call)
		return held
	case *ast.GoStmt:
		// The goroutine does not hold the caller's locks.
		w.exprs(nil, x.Call)
		return held
	case *ast.AssignStmt:
		w.exprs(held, x.Rhs...)
		w.exprs(held, x.Lhs...)
		return held
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					w.exprs(held, vs.Values...)
				}
			}
		}
		return held
	case *ast.ReturnStmt:
		w.exprs(held, x.Results...)
		return held
	case *ast.IncDecStmt:
		w.exprs(held, x.X)
		return held
	case *ast.IfStmt:
		if x.Init != nil {
			held = w.stmt(x.Init, held)
		}
		w.exprs(held, x.Cond)
		w.block(x.Body.List, held)
		if x.Else != nil {
			w.stmt(x.Else, held)
		}
		return held
	case *ast.ForStmt:
		if x.Init != nil {
			w.stmt(x.Init, held)
		}
		w.exprs(held, x.Cond)
		w.block(x.Body.List, held)
		return held
	case *ast.RangeStmt:
		w.exprs(held, x.X)
		w.block(x.Body.List, held)
		return held
	case *ast.SwitchStmt:
		if x.Init != nil {
			held = w.stmt(x.Init, held)
		}
		w.exprs(held, x.Tag)
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.exprs(held, cc.List...)
				w.block(cc.Body, held)
			}
		}
		return held
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			held = w.stmt(x.Init, held)
		}
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.block(cc.Body, held)
			}
		}
		return held
	case *ast.SelectStmt:
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				if cc.Comm != nil {
					w.stmt(cc.Comm, held)
				}
				w.block(cc.Body, held)
			}
		}
		return held
	case *ast.BlockStmt:
		w.block(x.List, held)
		return held
	case *ast.LabeledStmt:
		return w.stmt(x.Stmt, held)
	}
	return held
}

// removeLock drops the last occurrence of key from held.
func removeLock(held []string, key string) []string {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i] == key {
			out := make([]string, 0, len(held)-1)
			out = append(out, held[:i]...)
			return append(out, held[i+1:]...)
		}
	}
	return held
}

func runLockOrder(pass *Pass) error {
	decls := map[*types.Func]*ast.FuncDecl{}
	sums := map[*types.Func]*lockSummary{}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				decls[obj] = fd
				sums[obj] = newLockSummary()
			}
		}
	}

	// Fixpoint over the package's call graph: run the walk in summary
	// mode until no function's summary grows. The universe of keys and op
	// positions is finite, so this terminates; the iteration cap is a
	// backstop against pathological graphs.
	for iter := 0; iter < 16; iter++ {
		changed := false
		for obj, fd := range decls {
			w := &lockWalker{pass: pass, sums: sums, cur: newLockSummary()}
			w.block(fd.Body.List, nil)
			if w.cur.size() != sums[obj].size() {
				sums[obj] = w.cur
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Report pass with stable summaries, collecting the edges.
	w := &lockWalker{pass: pass, sums: sums, report: true}
	for _, fd := range decls {
		w.cur = newLockSummary()
		w.block(fd.Body.List, nil)
	}
	reportLockCycles(pass, w.edges)
	return nil
}

// reportLockCycles reports each acquisition-order cycle among the
// package's edges, deduplicated by the set of locks involved.
func reportLockCycles(pass *Pass, edges []lockEdge) {
	// Deterministic edge order: the report pass walks functions in map
	// order, and the cycle dedupe keeps the first closing edge seen —
	// sort so "first" is stable across runs.
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.pos != b.pos {
			return a.pos < b.pos
		}
		if a.from != b.from {
			return a.from < b.from
		}
		return a.to < b.to
	})
	adj := map[string][]string{}
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
	}

	seen := map[string]bool{}
	for _, e := range edges {
		// A cycle through this edge exists iff e.from is reachable from
		// e.to in the rest of the graph.
		path := lockPath(adj, e.to, e.from)
		if path == nil {
			continue
		}
		// path runs e.to … e.from and names each lock of the cycle once.
		cycle := append([]string{e.from}, path...)
		dedupe := append([]string(nil), path...)
		sort.Strings(dedupe)
		key := strings.Join(dedupe, "|")
		if seen[key] {
			continue
		}
		seen[key] = true
		pass.Reportf(e.pos, "lock order cycle: %s; locks acquired in inconsistent order can deadlock — pick one global order", strings.Join(cycle, " → "))
	}
}

// lockPath returns a node path from src to dst (inclusive), or nil.
func lockPath(adj map[string][]string, src, dst string) []string {
	visited := map[string]bool{src: true}
	var dfs func(cur string, path []string) []string
	dfs = func(cur string, path []string) []string {
		if cur == dst {
			return path
		}
		for _, next := range adj[cur] {
			if visited[next] {
				continue
			}
			visited[next] = true
			if p := dfs(next, append(path, next)); p != nil {
				return p
			}
		}
		return nil
	}
	return dfs(src, []string{src})
}

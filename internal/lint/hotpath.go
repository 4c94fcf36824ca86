package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// hotpathPkg is the solver package whose exported entry points form the
// hot-path root set. (*Solver).solve is the CDCL loop entered once per
// SolveAssuming call, and (*Solver).analyzeFinal runs per UNSAT answer
// to extract the failed-assumption core: everything reachable from
// either runs per-decision/per-conflict/per-answer, where the
// obs-overhead ablation proved the <2% cost contract — a contract that
// holds only while no clock syscalls, formatting, map construction or lock
// acquisition creeps onto the path. Heap allocation is held to its budget
// at run time instead: internal/sat's TestSteadyStateAllocatesNothing
// counts what a warmed solver allocates, which no syntactic check can.
const (
	hotpathPkg      = "internal/sat"
	hotpathRootType = "Solver"
)

// hotpathRootFuncs is the root set: the (*Solver) methods the BFS
// starts from. HotPathRoots exposes it for the pin test.
var hotpathRootFuncs = []string{"solve", "analyzeFinal"}

// HotPathRoots returns the hot-path root set in "(*Solver).name" form.
func HotPathRoots() []string {
	out := make([]string, len(hotpathRootFuncs))
	for i, f := range hotpathRootFuncs {
		out[i] = "(*" + hotpathRootType + ")." + f
	}
	return out
}

// hotOpCap bounds the ops recorded per function summary; past this the
// function is thoroughly condemned already and more detail only bloats
// the fact files.
const hotOpCap = 16

// HotOp is one forbidden operation a function (transitively) performs,
// as recorded in a package fact: a short description and the rendered
// source position, so a diagnostic at a cross-package call site can
// name the concrete op behind the boundary.
type HotOp struct {
	Desc string
	Pos  string
}

// HotPathFact is the hotpath analyzer's package fact: for each
// function (keyed "Recv.Name" or "Name"), the forbidden ops reachable
// through it — its own plus, transitively, those of everything it
// calls. Dependencies are analyzed first, so by the time the solver
// package runs, a call into any dependency resolves to a complete
// summary.
type HotPathFact struct {
	Funcs map[string][]HotOp
}

// HotPath forbids clocks, fmt, map construction and mutex acquisition
// in functions statically reachable from the solver hot-path roots,
// following calls across package boundaries via package facts.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc: "forbids time.Now/Since/Until, fmt.*, map construction and sync.(RW)Mutex " +
		"acquisition in functions statically reachable from the solver hot-path roots " +
		"((*sat.Solver).solve and analyzeFinal), across package boundaries via " +
		"per-package facts, enforcing the <2% observability-overhead contract the obs " +
		"ablation measures; other heap allocation is held to internal/sat's runtime " +
		"budget (TestSteadyStateAllocatesNothing), not linted; justified exceptions " +
		"(e.g. the rate-limited deadline poll) carry a //bmclint:ignore hotpath <reason>",
	Run:      runHotPath,
	FactType: func() any { return new(HotPathFact) },
}

// funcKey renders a function's fact-map key: "RecvType.Name" with the
// pointer stripped, or the bare name for package-level functions.
func funcKey(f *types.Func) string {
	if recv := f.Signature().Recv(); recv != nil {
		if n := namedFrom(recv.Type()); n != nil {
			return n.Obj().Name() + "." + f.Name()
		}
	}
	return f.Name()
}

// hotDirect is one forbidden op performed directly by a function: the
// short fact description plus the full in-package diagnostic.
type hotDirect struct {
	desc string
	pos  token.Pos
	msg  string
}

// hotCrossSite is one call site into another package, annotated with
// the forbidden ops the callee's fact says it reaches (empty = clean
// or no fact).
type hotCrossSite struct {
	pos  token.Pos
	name string // display name, e.g. "obs.Tick"
	ops  []HotOp
}

// hotFn is the per-function analysis result.
type hotFn struct {
	direct []hotDirect
	locals []*types.Func
	cross  []hotCrossSite
}

func runHotPath(pass *Pass) error {
	// Collect every function/method declared in the package with a body,
	// keyed by its canonical object.
	decls := map[*types.Func]*ast.FuncDecl{}
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
			}
		}
	}
	if len(decls) == 0 {
		return nil
	}

	fns := map[*types.Func]*hotFn{}
	for obj, fd := range decls {
		fns[obj] = hotScanFunc(pass, decls, obj, fd)
	}

	// Transitive summaries: each function's forbidden ops are its direct
	// ops, the ops behind its cross-package call sites (complete already,
	// since dependencies were analyzed first), and — to fixpoint — its
	// same-package callees' summaries.
	summaries := map[*types.Func][]HotOp{}
	for obj, fn := range fns {
		var ops []HotOp
		for _, d := range fn.direct {
			ops = append(ops, HotOp{Desc: d.desc, Pos: pass.Fset.Position(d.pos).String()})
		}
		for _, cs := range fn.cross {
			ops = append(ops, cs.ops...)
		}
		summaries[obj] = hotMergeOps(ops, nil)
	}
	for changed := true; changed; {
		changed = false
		for obj, fn := range fns {
			merged := summaries[obj]
			for _, callee := range fn.locals {
				merged = hotMergeOps(merged, summaries[callee])
			}
			if len(merged) != len(summaries[obj]) {
				summaries[obj] = merged
				changed = true
			}
		}
	}

	fact := &HotPathFact{Funcs: map[string][]HotOp{}}
	for obj, ops := range summaries {
		if len(ops) > 0 {
			fact.Funcs[funcKey(obj)] = ops
		}
	}
	if len(fact.Funcs) > 0 {
		if err := pass.ExportPackageFact(fact); err != nil {
			return err
		}
	}

	// Reporting happens only in the solver package: BFS the local call
	// graph from the root set, then flag each reachable function's
	// direct ops in place and each cross-package call site whose
	// callee's fact is non-clean.
	if !pkgHasSuffix(pass.Pkg, hotpathPkg) {
		return nil
	}
	roots := map[string]bool{}
	for _, r := range hotpathRootFuncs {
		roots[r] = true
	}
	reachable := map[*types.Func]bool{}
	var queue []*types.Func
	for obj := range decls {
		if !roots[obj.Name()] {
			continue
		}
		recv := obj.Signature().Recv()
		if recv != nil && isNamedType(recv.Type(), hotpathPkg, hotpathRootType) {
			reachable[obj] = true
			queue = append(queue, obj)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range fns[cur].locals {
			if !reachable[next] {
				reachable[next] = true
				queue = append(queue, next)
			}
		}
	}

	for obj := range reachable {
		fn := fns[obj]
		for _, d := range fn.direct {
			pass.Reportf(d.pos, "%s", d.msg)
		}
		for _, cs := range fn.cross {
			if len(cs.ops) == 0 {
				continue
			}
			more := ""
			if n := len(cs.ops) - 1; n > 0 {
				more = fmt.Sprintf(" and %d more forbidden op(s)", n)
			}
			pass.Reportf(cs.pos, "call to %s in %s reaches %s (%s)%s; forbidden on the solver hot path",
				cs.name, obj.Name(), cs.ops[0].Desc, cs.ops[0].Pos, more)
		}
	}
	return nil
}

// hotMergeOps merges two op lists, deduplicating, sorting for
// determinism, and capping at hotOpCap.
func hotMergeOps(a, b []HotOp) []HotOp {
	seen := map[HotOp]bool{}
	var out []HotOp
	for _, ops := range [][]HotOp{a, b} {
		for _, op := range ops {
			if !seen[op] {
				seen[op] = true
				out = append(out, op)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Desc != out[j].Desc {
			return out[i].Desc < out[j].Desc
		}
		return out[i].Pos < out[j].Pos
	})
	if len(out) > hotOpCap {
		out = out[:hotOpCap]
	}
	return out
}

// hotScanFunc walks one function body, recording direct forbidden ops,
// same-package callees, and cross-package call sites with the callees'
// fact-reported ops.
func hotScanFunc(pass *Pass, decls map[*types.Func]*ast.FuncDecl, obj *types.Func, fd *ast.FuncDecl) *hotFn {
	fn := &hotFn{}
	name := obj.Name()
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			hotScanCall(pass, decls, fn, name, x)
		case *ast.CompositeLit:
			if tv, ok := pass.TypesInfo.Types[x]; ok {
				if _, isMap := types.Unalias(tv.Type).(*types.Map); isMap {
					fn.direct = append(fn.direct, hotDirect{
						desc: "map allocation",
						pos:  x.Pos(),
						msg:  fmt.Sprintf("map literal in %s, reachable from the solver hot path; preallocate or use a slice keyed by dense index", name),
					})
				}
			}
		}
		return true
	})
	return fn
}

// hotScanCall classifies one call expression inside fn.
func hotScanCall(pass *Pass, decls map[*types.Func]*ast.FuncDecl, fn *hotFn, name string, x *ast.CallExpr) {
	callee := calleeFunc(pass.TypesInfo, x)
	if callee == nil {
		// make(map[...]) is a builtin, not a *types.Func.
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "make" && len(x.Args) > 0 {
			if tv, ok := pass.TypesInfo.Types[x.Args[0]]; ok {
				if _, isMap := types.Unalias(tv.Type).(*types.Map); isMap {
					fn.direct = append(fn.direct, hotDirect{
						desc: "map allocation",
						pos:  x.Pos(),
						msg:  fmt.Sprintf("map allocation in %s, reachable from the solver hot path; preallocate or use a slice keyed by dense index", name),
					})
				}
			}
		}
		return
	}
	cp := callee.Pkg()
	if cp == nil {
		return
	}
	switch {
	case cp.Path() == "time":
		switch callee.Name() {
		case "Now", "Since", "Until":
			fn.direct = append(fn.direct, hotDirect{
				desc: "time." + callee.Name(),
				pos:  x.Pos(),
				msg:  fmt.Sprintf("time.%s in %s, reachable from the solver hot path; clock syscalls are banned on the hot path (measure once per SolveAssuming instead)", callee.Name(), name),
			})
		}
		return
	case cp.Path() == "fmt":
		fn.direct = append(fn.direct, hotDirect{
			desc: "fmt." + callee.Name(),
			pos:  x.Pos(),
			msg:  fmt.Sprintf("fmt.%s in %s, reachable from the solver hot path; formatting allocates — keep it off the hot path", callee.Name(), name),
		})
		return
	case cp.Path() == "sync":
		switch callee.Name() {
		case "Lock", "RLock", "Unlock", "RUnlock":
			if recv := callee.Signature().Recv(); recv != nil {
				if n := namedFrom(recv.Type()); n != nil && (n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex") {
					fn.direct = append(fn.direct, hotDirect{
						desc: "sync." + n.Obj().Name() + "." + callee.Name(),
						pos:  x.Pos(),
						msg:  fmt.Sprintf("sync.%s.%s in %s, reachable from the solver hot path; the solver is single-threaded by contract — locking here breaks the cost model", n.Obj().Name(), callee.Name(), name),
					})
				}
			}
		}
		return
	}

	if _, local := decls[callee]; local {
		fn.locals = append(fn.locals, callee)
		return
	}
	if cp == pass.Pkg {
		return // same-package callee without a body (declared in a test file, etc.)
	}
	cs := hotCrossSite{pos: x.Pos(), name: cp.Name() + "." + funcKey(callee)}
	if v, ok := pass.ImportPackageFact(cp.Path()); ok {
		if f, ok := v.(*HotPathFact); ok {
			cs.ops = f.Funcs[funcKey(callee)]
		}
	}
	fn.cross = append(fn.cross, cs)
}

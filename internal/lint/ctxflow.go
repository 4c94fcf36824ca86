package lint

import (
	"go/ast"
	"go/types"
)

// ctxflowSolverPkgs are the packages whose entrypoints block on SAT
// search: calling into them without propagating the caller's context
// (or wiring sat.Options.Stop/Deadline) is how the PR 1–5 class of
// unkillable solves and leaked racer goroutines happened.
var ctxflowSolverPkgs = []string{
	"internal/sat",
	"internal/racer",
	"internal/portfolio",
	"internal/engine",
}

// CtxFlow enforces the cancellation contract around the solver layer.
// Whether the goroutines a check starts are joined is counted, not
// guessed: TestCheckJoinsGoroutines (internal/engine) and
// TestCloseJoinsGoroutines (internal/remote) read them when Check and
// Close return (internal/leakcheck).
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "enforces the ctx/Stop cancellation contract: a function holding a " +
		"context.Context must not manufacture context.Background()/TODO() below it, " +
		"and must actually use its ctx when calling into sat/racer/portfolio/engine",
	Run: runCtxFlow,
}

func runCtxFlow(pass *Pass) error {
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				if x.Body != nil {
					checkCtxParams(pass, x.Type, x.Body)
				}
			case *ast.FuncLit:
				checkCtxParams(pass, x.Type, x.Body)
			}
			return true
		})
	}
	return nil
}

// ctxParamObjs returns the objects of every context.Context parameter
// of the function type.
func ctxParamObjs(pass *Pass, ft *ast.FuncType) []types.Object {
	var out []types.Object
	if ft.Params == nil {
		return nil
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			obj := pass.TypesInfo.Defs[name]
			if obj != nil && isNamedType(obj.Type(), "context", "Context") {
				out = append(out, obj)
			}
		}
	}
	return out
}

// checkCtxParams applies the two context rules to one function body:
// no fresh Background/TODO below a held context, and the held context
// must be used when the body calls into the solver layer.
func checkCtxParams(pass *Pass, ft *ast.FuncType, body *ast.BlockStmt) {
	ctxs := ctxParamObjs(pass, ft)
	if len(ctxs) == 0 {
		return
	}
	held := map[types.Object]bool{}
	for _, o := range ctxs {
		held[o] = true
	}
	ctxUsed := false
	var solverCall *ast.CallExpr
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			if held[pass.TypesInfo.Uses[x]] {
				ctxUsed = true
			}
		case *ast.CallExpr:
			callee := calleeFunc(pass.TypesInfo, x)
			if callee == nil || callee.Pkg() == nil {
				return true
			}
			if callee.Pkg().Path() == "context" && (callee.Name() == "Background" || callee.Name() == "TODO") {
				pass.Reportf(x.Pos(), "context.%s inside a function that already holds a ctx; propagate the caller's context so cancellation reaches the solvers", callee.Name())
			}
			if solverCall == nil {
				for _, sp := range ctxflowSolverPkgs {
					if pkgHasSuffix(callee.Pkg(), sp) {
						solverCall = x
						break
					}
				}
			}
		}
		return true
	})
	if !ctxUsed && solverCall != nil {
		pass.Reportf(ft.Pos(), "ctx parameter is never used but the body calls into the solver layer (%s); plumb ctx through or set sat.Options.Stop/Deadline", pass.Fset.Position(solverCall.Pos()))
	}
}

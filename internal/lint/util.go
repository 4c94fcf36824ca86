package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Shared type-resolution helpers. Analyzers identify repo packages by
// import-path suffix ("internal/sat" matches "repro/internal/sat" and a
// test corpus's "a/internal/sat" alike) so the same analyzer runs over
// the real tree and over self-contained testdata.

// pathHasSuffix reports whether the import path is suffix itself or
// ends in "/"+suffix.
func pathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// pkgHasSuffix reports whether the (non-nil) package's path matches.
func pkgHasSuffix(pkg *types.Package, suffix string) bool {
	return pkg != nil && pathHasSuffix(pkg.Path(), suffix)
}

// namedFrom returns the named type behind t (through aliases and one
// level of pointer), or nil.
func namedFrom(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// isNamedType reports whether t is the named type name declared in a
// package whose path ends in pkgSuffix.
func isNamedType(t types.Type, pkgSuffix, name string) bool {
	n := namedFrom(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && pkgHasSuffix(obj.Pkg(), pkgSuffix)
}

// calleeFunc resolves the function or method a call expression
// statically invokes, or nil (calls through function values, interface
// methods resolve to the interface's *types.Func — still useful for
// name/package matching).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// isConversion reports whether the call expression is a type
// conversion, returning the target type.
func isConversion(info *types.Info, call *ast.CallExpr) (types.Type, bool) {
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return nil, false
	}
	return tv.Type, true
}

// isIntegerType reports whether t is a basic integer type (signed or
// unsigned, any width) — but not a named wrapper around one.
func isIntegerType(t types.Type) bool {
	b, ok := types.Unalias(t).(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

package lint

import (
	"go/ast"
	"go/types"
)

// exhaustiveType describes one enum-like named type whose switches are
// checked. Strict types must handle every member even when a default
// clause is present — the event stream is the observability contract,
// and a default that swallows a new EventKind is exactly the silent
// drop this analyzer exists to prevent. Lax types accept a default
// clause as the handler for the remainder.
type exhaustiveType struct {
	pkgSuffix string
	name      string
	strict    bool
}

var exhaustiveTypes = []exhaustiveType{
	{"internal/engine", "EventKind", true},
	{"internal/sat", "Status", false},
	{"internal/engine", "Verdict", false},
	{"internal/engine", "Kind", false},
	{"internal/core", "Strategy", false},
}

// EventExhaustive checks that switches over the engine/solver enum
// types handle every declared member.
var EventExhaustive = &Analyzer{
	Name: "eventexhaustive",
	Doc: "requires switches over engine.EventKind (strictly: a default clause does not " +
		"excuse missing members) and over sat.Status, engine.Verdict/Kind, and " +
		"core.Strategy (lax: a default clause handles the remainder) to cover every " +
		"declared constant of the type, so adding an enum member cannot silently " +
		"fall through an existing consumer",
	Run: runEventExhaustive,
}

func runEventExhaustive(pass *Pass) error {
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			checkExhaustive(pass, sw)
			return true
		})
	}
	return nil
}

// enumMembers enumerates the declared constants of the named type from
// its defining package's scope.
func enumMembers(named *types.Named) []*types.Const {
	pkg := named.Obj().Pkg()
	if pkg == nil {
		return nil
	}
	var out []*types.Const
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if ok && types.Identical(c.Type(), named) {
			out = append(out, c)
		}
	}
	return out
}

func checkExhaustive(pass *Pass, sw *ast.SwitchStmt) {
	tv, ok := pass.TypesInfo.Types[sw.Tag]
	if !ok || tv.Type == nil {
		return
	}
	named := namedFrom(tv.Type)
	if named == nil {
		return
	}
	var et *exhaustiveType
	for i := range exhaustiveTypes {
		t := &exhaustiveTypes[i]
		if named.Obj().Name() == t.name && pkgHasSuffix(named.Obj().Pkg(), t.pkgSuffix) {
			et = t
			break
		}
	}
	if et == nil {
		return
	}

	members := enumMembers(named)
	if len(members) == 0 {
		return
	}

	handled := map[string]bool{} // by constant value's exact string
	hasDefault := false
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
			continue
		}
		for _, e := range cc.List {
			ctv, ok := pass.TypesInfo.Types[e]
			if !ok || ctv.Value == nil {
				// Non-constant case expression: cannot reason about
				// coverage, bail out of this switch entirely.
				return
			}
			handled[ctv.Value.ExactString()] = true
		}
	}

	if hasDefault && !et.strict {
		return
	}

	var missing []string
	for _, m := range members {
		if !handled[m.Val().ExactString()] {
			missing = append(missing, m.Name())
		}
	}
	if len(missing) == 0 {
		return
	}
	kind := "switch"
	if hasDefault {
		kind = "switch (default clause does not excuse missing members of this strict type)"
	}
	pass.Reportf(sw.Pos(), "%s over %s.%s does not handle %s; enum consumers must be exhaustive so new members cannot silently fall through", kind, named.Obj().Pkg().Name(), named.Obj().Name(), joinNames(missing))
}

func joinNames(names []string) string {
	switch len(names) {
	case 0:
		return ""
	case 1:
		return names[0]
	}
	s := names[0]
	for _, n := range names[1 : len(names)-1] {
		s += ", " + n
	}
	return s + " and " + names[len(names)-1]
}

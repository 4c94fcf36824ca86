package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named static check. The shape deliberately mirrors
// golang.org/x/tools/go/analysis so the suite could migrate onto the
// upstream framework if the dependency ever becomes available; until
// then RunAnalyzers is the only runner, called by the vet-tool driver
// (RunVetTool) and the corpus harness (linttest).
type Analyzer struct {
	// Name is the analyzer's identifier: the suppression key
	// (//bmclint:ignore <name> <reason>) and the suffix shown on every
	// diagnostic.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run inspects one type-checked package and reports findings
	// through the pass.
	Run func(*Pass) error
	// FactType, when non-nil, declares that the analyzer produces one
	// package fact per analyzed package; it returns a pointer to a
	// fresh zero value of the fact's concrete type, which the fact
	// store gob-decodes imported facts into. Nil means fact-free.
	FactType func() any
}

// Pass carries one package's syntax and type information into an
// analyzer's Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
	facts *FactStore
}

// ExportPackageFact records v as this analyzer's fact for the package
// under analysis, making it importable by every later-analyzed package.
func (p *Pass) ExportPackageFact(v any) error {
	return p.facts.export(p.Pkg.Path(), p.Analyzer.Name, v)
}

// ImportPackageFact returns the fact this analyzer exported for the
// package with the given import path, or (nil, false) when the package
// was not analyzed before this one (outside the module, not yet
// reached, or fact-free). The returned value is shared — treat it as
// read-only.
func (p *Pass) ImportPackageFact(path string) (any, bool) {
	return p.facts.get(path, p.Analyzer)
}

// Diagnostic is one finding, positioned and attributed to its analyzer.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in the conventional one-line form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (bmclint/%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// InTestFile reports whether pos lies in a _test.go file. Several
// analyzers relax their invariant inside tests (partial event switches
// in tests are assertions, not consumers).
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Package is one loaded, type-checked package — the unit the vet-tool
// driver and linttest hand to RunAnalyzers.
type Package struct {
	Fset      *token.FileSet
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// NewTypesInfo allocates the types.Info with every map the analyzers
// consume populated.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// ignoreDirective is one parsed //bmclint:ignore comment.
type ignoreDirective struct {
	analyzer string // analyzer name or "all"
	reason   string
	pos      token.Pos
	used     bool
}

const ignorePrefix = "//bmclint:ignore"

// ignoreRe validates the directive's payload: an analyzer name followed
// by a non-empty justification.
var ignoreRe = regexp.MustCompile(`^//bmclint:ignore\s+(\S+)\s+(\S.*)$`)

// collectIgnores parses every //bmclint:ignore directive in the
// package, keyed by file and line. Malformed directives (no analyzer,
// or no reason — the reason is the point: exceptions must be justified
// in place) are reported as diagnostics themselves.
func collectIgnores(pkg *Package, diags *[]Diagnostic) map[string]map[int][]*ignoreDirective {
	out := map[string]map[int][]*ignoreDirective{}
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					*diags = append(*diags, Diagnostic{
						Analyzer: "bmclint",
						Pos:      pos,
						Message:  "malformed suppression: want //bmclint:ignore <analyzer> <reason>",
					})
					continue
				}
				byLine := out[pos.Filename]
				if byLine == nil {
					byLine = map[int][]*ignoreDirective{}
					out[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], &ignoreDirective{
					analyzer: m[1], reason: m[2], pos: c.Pos(),
				})
			}
		}
	}
	return out
}

// RunAnalyzers runs every analyzer over the package, applies
// //bmclint:ignore suppressions (a directive on the finding's line or
// the line immediately above it, naming the analyzer or "all"), and
// returns the surviving diagnostics sorted by position. Unknown
// analyzer names in directives are reported so a typo cannot silently
// disable nothing.
//
// facts carries package facts across packages: pass the same store for
// every package of a run, in dependency order, and cross-package
// analyzers see their dependencies' facts. A nil store runs the
// analyzers fact-blind (the pre-facts, package-local view).
func RunAnalyzers(pkg *Package, analyzers []*Analyzer, facts *FactStore) ([]Diagnostic, error) {
	if facts == nil {
		facts = NewFactStore()
	}
	var raw []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Syntax,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			diags:     &raw,
			facts:     facts,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %v", a.Name, err)
		}
	}

	var diags []Diagnostic
	ignores := collectIgnores(pkg, &diags)
	known := map[string]bool{"all": true}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	suppressed := func(d Diagnostic) bool {
		byLine := ignores[d.Pos.Filename]
		if byLine == nil {
			return false
		}
		for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
			for _, ig := range byLine[line] {
				if ig.analyzer == d.Analyzer || ig.analyzer == "all" {
					ig.used = true
					return true
				}
			}
		}
		return false
	}
	for _, d := range raw {
		if !suppressed(d) {
			diags = append(diags, d)
		}
	}
	for _, byLine := range ignores {
		for _, igs := range byLine {
			for _, ig := range igs {
				if !known[ig.analyzer] {
					diags = append(diags, Diagnostic{
						Analyzer: "bmclint",
						Pos:      pkg.Fset.Position(ig.pos),
						Message:  fmt.Sprintf("suppression names unknown analyzer %q", ig.analyzer),
					})
				}
			}
		}
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Message < diags[j].Message
	})
	return diags, nil
}

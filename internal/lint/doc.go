// Package lint is the repo's own go/analysis-style checker suite,
// built on the standard library alone (go/ast, go/types, go/importer)
// so it carries no module dependencies. cmd/bmclint serves it as a vet
// tool and nothing else (`go vet -vettool=$(which bmclint) ./...`); the
// CI lint job runs exactly that, so a finding gates the build like
// vet's own.
//
// # Whole-program analysis via package facts
//
// The suite is modular in the x/tools sense: analyzers see one package
// at a time, but an analyzer that declares a FactType may export one
// gob-serialized package fact per package (Pass.ExportPackageFact) and
// import the facts of every dependency analyzed before it
// (Pass.ImportPackageFact). hotpath is the only analyzer that does: the
// solver's hot path runs through other packages' code, while every other
// analyzer's subject lies within one package. cmd/go visits packages in
// dependency order; RunVetTool reads each dependency's fact file from
// the .cfg's PackageVetx table and writes the merged store
// (dependencies' facts plus its own) to VetxOutput, so cmd/go's build
// cache carries the whole-program view from unit to unit. Only the main
// module produces facts: fact-only units from std or a dependency
// module are skipped before typechecking, so a fact names a package of
// this module or does not exist. Fact files carry a versioned magic
// header; a foreign or stale blob is rejected, an undecodable fact
// degrades to "no fact", and FuzzUnitcheckerCfg pins that both
// decoders reject garbage without panicking.
//
// The analyzers mechanize invariants that code review has had to carry
// by hand:
//
//   - litsafe: lits.Lit values are opaque outside the encoding
//     packages (internal/lits, internal/cnf, internal/sat,
//     internal/unroll). Arithmetic on a Lit, or an int<->Lit
//     conversion, anywhere else almost always means someone confused
//     the literal encoding (var<<1 | sign) with a variable index.
//
//   - hotpath: nothing statically reachable from the solver hot-path
//     roots — (*sat.Solver).solve and analyzeFinal, the set pinned by
//     HotPathRoots — may call time.Now/Since/Until, any fmt function,
//     construct a map, or take a sync.(RW)Mutex. Each package exports a
//     HotPathFact summarizing the forbidden ops transitively reachable
//     through each of its functions, so the BFS from the roots follows
//     calls across package boundaries: a time.Now two packages below
//     internal/sat is reported at the internal/sat call site that
//     reaches it. This is the mechanized form of the obs-overhead
//     ablation's contract (cmd/tablegen -experiment=obs-overhead). The
//     solver's rate-limited deadline poll carries the one
//     //bmclint:ignore directive. Heap allocation is not linted: no
//     syntactic rule sees what escapes per conflict, so internal/sat's
//     TestSteadyStateAllocatesNothing counts it instead — a warmed
//     solver, recorder attached, searches with zero allocations.
//
//   - lockorder: no channel send and no sat Solve/SolveAssuming call
//     while holding any lock (a send can block indefinitely; a solve
//     runs unbounded search), and each package's lock-acquisition graph
//     over sync.Mutex/RWMutex struct fields must be acyclic — two
//     functions taking the same two locks in opposite orders deadlock
//     under the right schedule, which go test -race does not catch. The
//     analysis is package-local: each function's held-lock walk is
//     defer-aware, calls into the same package fold in the callee's
//     summary (computed to a fixpoint), and cycles are reported once per
//     lock set at a closing edge. No edge in the tree crosses a package,
//     and its one pair of nested locks is benchmark/decorator.go's.
//
//   - ctxflow: a function holding a context must not mint
//     context.Background/TODO below it, and must use the context when
//     its body calls into the solver layers (internal/sat,
//     internal/racer, internal/portfolio, internal/engine) — a dropped
//     context there is a solve nothing can cancel. Goroutine joins are
//     not linted but counted (internal/leakcheck):
//     TestCheckJoinsGoroutines (internal/engine) counts the goroutines
//     the moment every engine shape's Check returns, and
//     TestCloseJoinsGoroutines (internal/remote) reads their stacks the
//     moment a loopback executor's Close does; no goroutine started by
//     the call may be short of its join.
//
//   - eventexhaustive: switches over engine.EventKind must name every
//     member — a default clause does not excuse omissions, because
//     observers silently dropping a new event kind is exactly how the
//     progress printer rotted before. Switches over sat.Status,
//     engine.Verdict/Kind, and core.Strategy need only be exhaustive
//     when they lack a default.
//
// Metric names are not linted: internal/remote's TestMetricCatalogue
// runs every engine shape and checks each registered name against a
// golden list, the snake_case convention, and README.
//
// False positives are suppressed in place with
//
//	//bmclint:ignore <analyzer> <reason>
//
// on the flagged line or the line above; the reason is mandatory, and
// a malformed or unknown-analyzer directive is itself a finding, so
// suppressions cannot rot silently. `all` suppresses every analyzer.
// Suppression applies where a diagnostic is reported; facts record
// what code does regardless, so an op in a dependency still surfaces
// at the hot-path call sites that reach it — the fix for those is
// changing the dependency (as was done for the fmt.Sprintf that lived
// in lits.Assignment.Set's panic path while the solver still assigned
// through it; it now writes a truth table of its own), not suppressing.
//
// Adding an analyzer: write a run function with the signature
// func(*Pass) error that walks pass.Files and calls pass.Reportf,
// declare a *Analyzer for it (with FactType if it needs cross-package
// state), append it to All() in registry.go, give it a corpus under
// testdata/src/<dir>/ with // want comments — multi-package corpora
// run through linttest.RunDeps, which threads facts in listed order —
// a linttest test, and add its name to the roster pin in cmd/bmclint's
// TestAllAnalyzersRegistered. The vet-tool driver picks it up from
// All() with no further wiring. An analyzer needs a subject: a
// construct the tree actually contains that the type system does not
// already rule out.
package lint

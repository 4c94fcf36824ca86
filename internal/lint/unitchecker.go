package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
)

// Vet-tool driver. `go vet -vettool=bmclint ./...` invokes the tool
// once per package with a JSON config file describing the sources,
// the import map, and where every dependency's export data lives —
// the same contract golang.org/x/tools/go/analysis/unitchecker
// implements, reproduced here on the stdlib only.
//
// Facts ride the same protocol: cmd/go tells us where each dependency's
// cached fact file lives (PackageVetx) and where to write ours
// (VetxOutput). Dependencies are visited first — with VetxOnly set when
// cmd/go only needs their facts — so by the time the target package's
// invocation runs, the merged dependency stores carry every transitive
// fact of the main module. Fact-only units outside the main module
// (std, dependency modules) are not typechecked at all: facts are only
// ever consumed inside the main module, so such a unit just writes the
// (empty) store its own dependencies handed it.

// vetConfig is the subset of the JSON cmd/go writes for vet tools that
// RunVetTool consumes.
type vetConfig struct {
	Compiler                  string
	ImportPath                string
	ModulePath                string // "" for std
	ModuleVersion             string // "" for the main module
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	GoVersion                 string
	SucceedOnTypecheckFailure bool
}

// RunVetTool executes one vet invocation: reads the config, merges the
// dependencies' fact files, typechecks the package, runs the analyzers,
// writes this package's fact file, and prints diagnostics to w in the
// format cmd/go expects (it parses "file:line:col: message" lines from
// the tool's stderr). It returns the process exit code: 0 for clean,
// 2 for findings, 1 for operational errors.
func RunVetTool(w io.Writer, cfgPath string, analyzers []*Analyzer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(w, "bmclint: %v\n", err)
		return 1
	}
	cfg, err := parseVetConfig(data)
	if err != nil {
		fmt.Fprintf(w, "bmclint: parsing vet config %s: %v\n", cfgPath, err)
		return 1
	}

	facts := NewFactStore()
	for path, file := range cfg.PackageVetx {
		dep, err := readVetx(file)
		if err != nil {
			fmt.Fprintf(w, "bmclint: facts of %s: %v\n", path, err)
			return 1
		}
		if dep != nil {
			facts.Merge(dep)
		}
	}

	// bail writes the facts gathered so far and succeeds: a fact-only
	// unit this loader cannot typecheck (cgo, assembly quirks) or an
	// analyzer crashes on must degrade to "no facts from here" rather
	// than fail the whole vet run.
	bail := func() int {
		if err := writeVetx(cfg.VetxOutput, facts); err != nil {
			fmt.Fprintf(w, "bmclint: %v\n", err)
			return 1
		}
		return 0
	}

	// A fact-only unit from std (no module) or a dependency module
	// (versioned) produces facts nothing reads.
	if cfg.VetxOnly && (cfg.ModulePath == "" || cfg.ModuleVersion != "") {
		return bail()
	}

	pkg, err := typecheckVetConfig(cfg)
	if err != nil {
		if cfg.VetxOnly || cfg.SucceedOnTypecheckFailure {
			return bail()
		}
		fmt.Fprintf(w, "bmclint: %v\n", err)
		return 1
	}

	diags, err := runAnalyzersGuarded(pkg, analyzers, facts)
	if err != nil {
		if cfg.VetxOnly {
			return bail()
		}
		fmt.Fprintf(w, "bmclint: %v\n", err)
		return 1
	}

	// The vetx is written after analysis so it includes this package's
	// own facts on top of the merged dependency stores.
	if err := writeVetx(cfg.VetxOutput, facts); err != nil {
		fmt.Fprintf(w, "bmclint: %v\n", err)
		return 1
	}

	if cfg.VetxOnly || len(diags) == 0 {
		return 0
	}
	for _, d := range diags {
		// go vet prefixes the package; emit position and message only.
		fmt.Fprintln(w, d)
	}
	return 2
}

// runAnalyzersGuarded converts an analyzer panic into an error, so a
// crash on a fact-only dependency degrades to "no facts from here"
// instead of killing the whole go vet run.
func runAnalyzersGuarded(pkg *Package, analyzers []*Analyzer, facts *FactStore) (diags []Diagnostic, err error) {
	defer func() {
		if r := recover(); r != nil {
			diags, err = nil, fmt.Errorf("analyzer panic on %s: %v", pkg.Types.Path(), r)
		}
	}()
	return RunAnalyzers(pkg, analyzers, facts)
}

// parseVetConfig decodes one vet .cfg payload. Split from file I/O so
// the fuzz target can drive it directly with arbitrary bytes.
func parseVetConfig(data []byte) (*vetConfig, error) {
	cfg := new(vetConfig)
	if err := json.Unmarshal(data, cfg); err != nil {
		return nil, err
	}
	return cfg, nil
}

// readVetx loads one dependency's fact file. Zero-length files are the
// fact-free marker older bmclint versions wrote — treated as empty, not
// an error — while a non-empty file with the wrong header is corrupt or
// foreign and rejected.
func readVetx(path string) (*FactStore, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) == 0 {
		return nil, nil
	}
	return DecodeFacts(data)
}

// writeVetx writes the facts file cmd/go caches for this package.
// A missing VetxOutput (older toolchains running with -vettool on a
// leaf invocation) is not an error.
func writeVetx(path string, facts *FactStore) error {
	if path == "" {
		return nil
	}
	data, err := facts.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o666)
}

// typecheckVetConfig parses and typechecks the package described by the
// vet config, resolving imports through its ImportMap/PackageFile
// tables.
func typecheckVetConfig(cfg *vetConfig) (*Package, error) {
	if cfg.Compiler != "gc" && cfg.Compiler != "" {
		return nil, fmt.Errorf("unsupported compiler %q", cfg.Compiler)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	info := NewTypesInfo()
	conf := types.Config{
		Importer:  importer.ForCompiler(fset, "gc", lookup),
		GoVersion: cfg.GoVersion,
	}
	tpkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", cfg.ImportPath, err)
	}
	return &Package{Fset: fset, Syntax: files, Types: tpkg, TypesInfo: info}, nil
}

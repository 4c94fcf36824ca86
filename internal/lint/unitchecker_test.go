package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestVetToolSkipsOutsideMainModule: a fact-only unit from std (no
// ModulePath) or from a dependency module (a ModuleVersion) produces no
// facts, while the same package in the main module does. cmd/go leaves
// Standard[ImportPath] unset on the std units it hands a vet tool, so a
// skip keyed on that map never fired and all of std was analysed.
func TestVetToolSkipsOutsideMainModule(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "p.go")
	// A map allocation is a hotpath op in any package, so analysing p
	// always exports a HotPathFact for it.
	if err := os.WriteFile(src, []byte("package p\n\nfunc F() map[int]int { return make(map[int]int) }\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	for i, tc := range []struct {
		name                      string
		modulePath, moduleVersion string
		wantFact                  bool
	}{
		{"std", "", "", false},
		{"dependency module", "example.com/dep", "v1.2.3", false},
		{"main module", "m", "", true},
	} {
		vetx := filepath.Join(dir, fmt.Sprint("vetx", i))
		cfg, err := json.Marshal(map[string]any{
			"Compiler":      "gc",
			"ImportPath":    "p",
			"ModulePath":    tc.modulePath,
			"ModuleVersion": tc.moduleVersion,
			"GoFiles":       []string{src},
			"VetxOnly":      true,
			"VetxOutput":    vetx,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfgPath := filepath.Join(dir, "vet.cfg")
		if err := os.WriteFile(cfgPath, cfg, 0o666); err != nil {
			t.Fatal(err)
		}
		if code := RunVetTool(io.Discard, cfgPath, All()); code != 0 {
			t.Fatalf("%s: RunVetTool exited %d", tc.name, code)
		}
		facts, err := readVetx(vetx)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		_, got := facts.raw["p"]
		if got != tc.wantFact {
			t.Errorf("%s: fact store holds a fact for p = %v, want %v", tc.name, got, tc.wantFact)
		}
	}
}

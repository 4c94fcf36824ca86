package perfbench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// SchemaVersion is the artifact schema this package writes and reads.
// Bump it on any incompatible change to Artifact/CellResult; Validate
// rejects mismatched files so a stale committed baseline fails loudly
// instead of comparing garbage.
const SchemaVersion = 1

// Artifact is one benchmark run's machine-readable record — the
// BENCH_<suite>.json file.
type Artifact struct {
	Schema int    `json:"schema"`
	Suite  string `json:"suite"`
	// GoVersion/GOOS/GOARCH stamp the toolchain and platform the run was
	// made on — context for wall-time and memory drift, not compared.
	GoVersion string       `json:"go_version,omitempty"`
	GOOS      string       `json:"goos,omitempty"`
	GOARCH    string       `json:"goarch,omitempty"`
	Cells     []CellResult `json:"cells"`
}

// CellResult is one cell's reduced outcome.
type CellResult struct {
	Model string `json:"model"`
	Shape string `json:"shape"`
	// Deterministic echoes the shape's determinism class; compare reads
	// it from the artifact (not the live table) so old artifacts keep
	// their own contract.
	Deterministic bool `json:"deterministic"`
	// Verdict/K are the engine outcome — exact in every comparison.
	Verdict string `json:"verdict"`
	K       int    `json:"k"`
	// Counters are search totals (conflicts, decisions, propagations,
	// learned, restarts) plus the per-link bus_* traffic on warm cells.
	// Exact on deterministic cells, informational otherwise.
	Counters map[string]int64 `json:"counters"`
	// WallNanos is the check's wall time; EncodeWallNanos/SolveWallNanos
	// split the per-depth encode/solve parts (BMC shapes only).
	WallNanos       int64 `json:"wall_nanos"`
	EncodeWallNanos int64 `json:"encode_wall_nanos,omitempty"`
	SolveWallNanos  int64 `json:"solve_wall_nanos,omitempty"`
	// Memory holds the run's final memory telemetry: the mem_* gauges
	// and the summed solver clause-database gauges.
	Memory map[string]int64 `json:"memory,omitempty"`
}

// Key identifies the cell within a suite (model/shape).
func (c *CellResult) Key() string { return c.Model + "/" + c.Shape }

// Validate checks structural well-formedness and the schema version.
func (a *Artifact) Validate() error {
	if a.Schema != SchemaVersion {
		return fmt.Errorf("perfbench: artifact schema %d, this build reads %d", a.Schema, SchemaVersion)
	}
	if a.Suite == "" {
		return fmt.Errorf("perfbench: artifact missing suite name")
	}
	if len(a.Cells) == 0 {
		return fmt.Errorf("perfbench: artifact has no cells")
	}
	seen := map[string]bool{}
	for i := range a.Cells {
		c := &a.Cells[i]
		if c.Model == "" || c.Shape == "" {
			return fmt.Errorf("perfbench: cell %d missing model/shape", i)
		}
		if c.Verdict == "" {
			return fmt.Errorf("perfbench: cell %s missing verdict", c.Key())
		}
		if c.WallNanos < 0 {
			return fmt.Errorf("perfbench: cell %s has negative wall time", c.Key())
		}
		if seen[c.Key()] {
			return fmt.Errorf("perfbench: duplicate cell %s", c.Key())
		}
		seen[c.Key()] = true
	}
	return nil
}

// WriteJSON writes the artifact as indented JSON.
func (a *Artifact) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

// WriteFile writes the artifact to path — ReadArtifact's counterpart.
func (a *Artifact) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := a.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadArtifact loads and validates an artifact file.
func ReadArtifact(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("perfbench: %s: %w", path, err)
	}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &a, nil
}

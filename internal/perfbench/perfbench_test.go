package perfbench

import (
	"bytes"
	"context"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/experiments"
)

func runSmoke(t *testing.T) *Artifact {
	t.Helper()
	suite, ok := SuiteByName("smoke")
	if !ok {
		t.Fatal("smoke suite missing")
	}
	art, err := Run(context.Background(), suite, nil)
	if err != nil {
		t.Fatal(err)
	}
	return art
}

func TestRunSmokeSuite(t *testing.T) {
	art := runSmoke(t)
	if err := art.Validate(); err != nil {
		t.Fatalf("artifact invalid: %v", err)
	}
	if art.Suite != "smoke" || len(art.Cells) != 2 {
		t.Fatalf("unexpected artifact envelope: %+v", art)
	}
	want := map[string]struct {
		verdict string
		k       int
	}{
		"tlc_bug/bmc-dynamic":       {"falsified", 1},
		"cnt_w4_t9/bmc-incremental": {"falsified", 9},
	}
	for i := range art.Cells {
		c := &art.Cells[i]
		w, ok := want[c.Key()]
		if !ok {
			t.Fatalf("unexpected cell %s", c.Key())
		}
		if c.Verdict != w.verdict || c.K != w.k {
			t.Errorf("%s: verdict %s@%d, want %s@%d", c.Key(), c.Verdict, c.K, w.verdict, w.k)
		}
		if !c.Deterministic {
			t.Errorf("%s: smoke shapes are single-strategy, must be deterministic", c.Key())
		}
		if c.Counters["decisions"] <= 0 || c.Counters["propagations"] <= 0 {
			t.Errorf("%s: empty search counters %v", c.Key(), c.Counters)
		}
		if c.WallNanos <= 0 {
			t.Errorf("%s: no wall time", c.Key())
		}
		if c.Memory["mem_heap_alloc"] <= 0 || c.Memory["mem_total_alloc"] <= 0 {
			t.Errorf("%s: memory telemetry missing: %v", c.Key(), c.Memory)
		}
		if c.Memory["solver_clauses_bytes_est"] <= 0 {
			t.Errorf("%s: clause-database estimate missing: %v", c.Key(), c.Memory)
		}
	}
}

// TestRunDeterministicCounters pins the contract the exact-compare side
// relies on: two runs of a deterministic cell agree on every search
// counter.
func TestRunDeterministicCounters(t *testing.T) {
	a, b := runSmoke(t), runSmoke(t)
	for i := range a.Cells {
		ca, cb := &a.Cells[i], &b.Cells[i]
		for _, name := range []string{"conflicts", "decisions", "propagations", "learned", "restarts"} {
			if ca.Counters[name] != cb.Counters[name] {
				t.Errorf("%s: %s differs across runs: %d vs %d",
					ca.Key(), name, ca.Counters[name], cb.Counters[name])
			}
		}
	}
}

func TestArtifactRoundTripAndCompare(t *testing.T) {
	art := runSmoke(t)
	path := filepath.Join(t.TempDir(), "BENCH_smoke.json")
	if err := art.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}

	// Self-comparison is clean.
	if fs := Compare(loaded, art); len(fs) != 0 {
		t.Fatalf("self-compare found %d findings: %+v", len(fs), fs)
	}

	// A perturbed conflict count on a deterministic cell is a failure
	// naming the cell and metric.
	perturbed := *loaded
	perturbed.Cells = append([]CellResult{}, loaded.Cells...)
	perturbed.Cells[0].Counters = map[string]int64{}
	for k, v := range loaded.Cells[0].Counters {
		perturbed.Cells[0].Counters[k] = v
	}
	perturbed.Cells[0].Counters["conflicts"] += 5
	fs := Compare(&perturbed, art)
	if !HasFailure(fs) {
		t.Fatalf("perturbed baseline produced no failure: %+v", fs)
	}
	found := false
	for _, f := range fs {
		if f.Cell == perturbed.Cells[0].Key() && f.Metric == "conflicts" && f.Fail {
			found = true
		}
	}
	if !found {
		t.Errorf("no failure names %s/conflicts: %+v", perturbed.Cells[0].Key(), fs)
	}
	var buf bytes.Buffer
	WriteFindings(&buf, fs)
	if !strings.Contains(buf.String(), "FAIL") || !strings.Contains(buf.String(), "conflicts") {
		t.Errorf("findings table does not name the regression:\n%s", buf.String())
	}
}

func TestCompareCellSetChanges(t *testing.T) {
	base := &Artifact{Schema: SchemaVersion, Suite: "s", Cells: []CellResult{
		{Model: "m1", Shape: "bmc-dynamic", Verdict: "holds", Counters: map[string]int64{}},
	}}
	cur := &Artifact{Schema: SchemaVersion, Suite: "s", Cells: []CellResult{
		{Model: "m2", Shape: "bmc-dynamic", Verdict: "holds", Counters: map[string]int64{}},
	}}
	fs := Compare(base, cur)
	if len(fs) != 2 {
		t.Fatalf("want missing-cell failure + new-cell warning, got %+v", fs)
	}
	if !fs[0].Fail || fs[0].Cell != "m1/bmc-dynamic" {
		t.Errorf("missing cell must fail first: %+v", fs[0])
	}
	if fs[1].Fail || fs[1].Cell != "m2/bmc-dynamic" {
		t.Errorf("new cell must warn: %+v", fs[1])
	}
}

// TestCompareWallTolerance pins the gate's contract on the noisy figures:
// wall time and memory are recorded in the artifact and survive the JSON
// round trip, but no difference in them — here 2x on both — is a finding.
func TestCompareWallTolerance(t *testing.T) {
	cell := func(scale int64) CellResult {
		return CellResult{Model: "m", Shape: "bmc-dynamic", Deterministic: true, Verdict: "holds",
			Counters:  map[string]int64{"conflicts": 7},
			WallNanos: scale * int64(time.Second),
			Memory:    map[string]int64{"mem_total_alloc": scale << 20, "solver_clauses_bytes_est": scale << 10}}
	}
	base := &Artifact{Schema: SchemaVersion, Suite: "s", Cells: []CellResult{cell(1)}}
	cur := &Artifact{Schema: SchemaVersion, Suite: "s", Cells: []CellResult{cell(2)}}

	path := filepath.Join(t.TempDir(), "BENCH_s.json")
	if err := cur.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Cells[0]; got.WallNanos != cur.Cells[0].WallNanos ||
		got.Memory["mem_total_alloc"] != 2<<20 || got.Memory["solver_clauses_bytes_est"] != 2<<10 {
		t.Fatalf("wall/memory lost in the round trip: %+v", got)
	}
	for _, pair := range [][2]*Artifact{{base, loaded}, {loaded, base}} {
		if fs := Compare(pair[0], pair[1]); len(fs) != 0 {
			t.Fatalf("wall/memory difference produced findings: %+v", fs)
		}
	}
}

func TestSchemaVersionRejected(t *testing.T) {
	art := &Artifact{Schema: SchemaVersion + 1, Suite: "s",
		Cells: []CellResult{{Model: "m", Shape: "x", Verdict: "holds"}}}
	if err := art.Validate(); err == nil {
		t.Fatal("future schema version accepted")
	}
}

// TestAblationConverters: FromGrid reduces a real warm grid through the
// same reduce as the suite cells — real verdict and depth, the full
// counter set, and the all-racer total on racing cells.
func TestAblationConverters(t *testing.T) {
	warm, ok := experiments.ByName("warm")
	if !ok {
		t.Fatal("warm experiment missing")
	}
	m, _ := bench.ByName("cnt_w4_t9")
	g, err := warm.Run(context.Background(), experiments.Config{Models: []bench.Model{m}})
	if err != nil {
		t.Fatal(err)
	}
	art := FromGrid("warm", g)
	if err := art.Validate(); err != nil {
		t.Fatalf("warm artifact invalid: %v", err)
	}
	if art.Suite != "warm" || len(art.Cells) != 3 {
		t.Fatalf("warm conversion wrong: %+v", art)
	}
	for i, shape := range []string{"cold", "warm", "shared"} {
		c := &art.Cells[i]
		if c.Key() != "cnt_w4_t9/"+shape || c.Deterministic {
			t.Errorf("cell %d is %s (deterministic=%v), want racing cnt_w4_t9/%s", i, c.Key(), c.Deterministic, shape)
		}
		if c.Verdict != "falsified" || c.K != 9 {
			t.Errorf("%s: verdict %s@%d, want the real falsified@9", c.Key(), c.Verdict, c.K)
		}
		if c.Counters["decisions"] <= 0 || c.WallNanos <= 0 {
			t.Errorf("%s: empty search counters %v", c.Key(), c.Counters)
		}
		if spent, ok := c.Counters["spent_conflicts"]; !ok || spent < c.Counters["conflicts"] {
			t.Errorf("%s: all-racer conflicts %d (present=%v) below the winners' %d",
				c.Key(), spent, ok, c.Counters["conflicts"])
		}
	}
	if fs := Compare(art, art); len(fs) != 0 {
		t.Errorf("self-compare of a converted grid found %+v", fs)
	}
	// Non-racing cells carry no all-racer counter.
	if _, ok := runSmoke(t).Cells[0].Counters["spent_conflicts"]; ok {
		t.Error("single-strategy cell reports spent_conflicts")
	}
}

// TestRunRemoteShape: the bmc-warm-remote shape builds its loopback
// fleet through Setup, races a cell over the wire, tears the workers
// down afterwards, and lands the same verdict as the model's spec.
func TestRunRemoteShape(t *testing.T) {
	before := runtime.NumGoroutine()
	suite := Suite{Name: "remote-smoke", Cells: []Cell{
		{Model: "cnt_w4_t9", Shape: "bmc-warm-remote"},
	}}
	art, err := Run(context.Background(), suite, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := &art.Cells[0]
	if c.Verdict != "falsified" || c.K != 9 {
		t.Errorf("verdict %s@%d, want falsified@9", c.Verdict, c.K)
	}
	if c.Deterministic {
		t.Error("remote racing cells must not claim deterministic counters")
	}
	// The cell's cleanup must have shut the loopback workers down — no
	// pingers or read loops may outlive the run.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("goroutines leaked across the cell: %d before, %d after", before, now)
	}
}

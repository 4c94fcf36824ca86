package lint

import (
	"strings"
	"testing"
)

// TestFactStoreRoundTrip: export → encode → decode → import through a
// fresh store recovers the fact, and merged stores see each other's
// packages.
func TestFactStoreRoundTrip(t *testing.T) {
	fs := NewFactStore()
	in := &HotPathFact{Funcs: map[string][]HotOp{
		"Tick": {{Desc: "time.Now", Pos: "obs.go:10:5"}},
	}}
	if err := fs.export("example.com/obs", HotPath.Name, in); err != nil {
		t.Fatal(err)
	}
	data, err := fs.Encode()
	if err != nil {
		t.Fatal(err)
	}

	back, err := DecodeFacts(data)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := back.get("example.com/obs", HotPath)
	if !ok {
		t.Fatal("fact lost in round trip")
	}
	got, ok := v.(*HotPathFact)
	if !ok {
		t.Fatalf("decoded fact has type %T", v)
	}
	if len(got.Funcs["Tick"]) != 1 || got.Funcs["Tick"][0].Desc != "time.Now" {
		t.Errorf("round-tripped fact = %+v, want %+v", got, in)
	}

	merged := NewFactStore()
	merged.Merge(back)
	if _, ok := merged.get("example.com/obs", HotPath); !ok {
		t.Error("merged store lost the fact")
	}
}

// TestDecodeFactsRejectsForeign: anything without this tool version's
// magic header must be an error, never mis-read facts.
func TestDecodeFactsRejectsForeign(t *testing.T) {
	for _, data := range [][]byte{
		[]byte("garbage"),
		[]byte("bmclint.facts\x00\x02rest"), // future schema version
		{},
	} {
		if _, err := DecodeFacts(data); err == nil {
			t.Errorf("DecodeFacts(%q) succeeded, want schema rejection", data)
		} else if !strings.Contains(err.Error(), "bmclint facts") {
			t.Errorf("DecodeFacts(%q) error %q does not name the schema", data, err)
		}
	}
}

// TestFactDegradesOnUndecodable: a blob the analyzer's fact type cannot
// decode behaves like no fact (the pre-facts view), not an error.
func TestFactDegradesOnUndecodable(t *testing.T) {
	fs := NewFactStore()
	fs.raw["p"] = map[string][]byte{HotPath.Name: []byte("\x01not gob")}
	if v, ok := fs.get("p", HotPath); ok {
		t.Errorf("undecodable fact imported as %v, want degradation to absent", v)
	}
}

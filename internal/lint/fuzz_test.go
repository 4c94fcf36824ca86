package lint

import (
	"testing"
)

// FuzzUnitcheckerCfg drives the two hand-rolled parsers on the vet-tool
// path with arbitrary bytes: the .cfg JSON decoder must never panic,
// and the facts decoder must either reject the input or return a store
// that is safe to query — a foreign or truncated cache entry must never
// be mis-read as facts.
func FuzzUnitcheckerCfg(f *testing.F) {
	f.Add([]byte(`{"ID":"p","Compiler":"gc","ImportPath":"p","GoFiles":["p.go"],"VetxOnly":true}`))
	f.Add([]byte(`{"ImportMap":{"a":"b"},"PackageVetx":{"a":"/tmp/x"},"SucceedOnTypecheckFailure":true}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"GoFiles": "not a list"}`))
	f.Add([]byte("bmclint.facts\x00\x01"))
	f.Add([]byte("bmclint.facts\x00\x02future"))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := parseVetConfig(data)
		if err == nil && cfg == nil {
			t.Fatal("parseVetConfig returned nil config without error")
		}
		fs, err := DecodeFacts(data)
		if err != nil {
			return
		}
		// A decodable store must be queryable without panicking.
		for _, a := range All() {
			for pkg := range fs.raw {
				fs.get(pkg, a)
			}
		}
	})
}

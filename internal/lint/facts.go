package lint

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// Facts infrastructure: an analyzer may export one serializable value
// per analyzed package (its "package fact") and import the facts its
// dependencies exported, which is what turns the per-package checkers
// into a whole-program analysis. Packages are always analyzed in
// dependency order — the vet-tool driver gets that order from cmd/go's
// action graph, linttest from the caller's package list — so by the
// time an analyzer sees a package, every fact of every (transitive)
// dependency in the main module is already in the store.
//
// Facts are serialized with encoding/gob, one blob per
// (package, analyzer) pair, inside a single versioned container file:
// the vetx file cmd/go caches per package (PackageVetx/VetxOutput in
// the vet .cfg). Each package's vetx carries the whole transitive
// store seen so far, so reading the direct imports' files is enough to
// recover every transitive fact.

// factsMagic is the versioned header of a serialized fact store. The
// trailing byte is the schema version; DecodeFacts rejects anything
// else, so a stale or foreign cache entry can never be mis-read as
// facts (cmd/go keys its cache on the tool's build ID, which makes a
// version mismatch unlikely — but the reject path keeps it an error
// rather than silent garbage).
const factsMagic = "bmclint.facts\x00\x01"

// FactStore holds package facts during one analysis run, keyed by
// package import path and analyzer name. Values are kept gob-encoded
// and decoded lazily on first import (decoding needs the analyzer's
// concrete fact type); decoded facts are cached and shared, so
// importers must treat them as read-only.
type FactStore struct {
	raw     map[string]map[string][]byte
	decoded map[string]map[string]any
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{
		raw:     map[string]map[string][]byte{},
		decoded: map[string]map[string]any{},
	}
}

// export gob-encodes v as the fact of (pkgPath, analyzer).
func (fs *FactStore) export(pkgPath, analyzer string, v any) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return fmt.Errorf("encoding %s fact for %s: %v", analyzer, pkgPath, err)
	}
	if fs.raw[pkgPath] == nil {
		fs.raw[pkgPath] = map[string][]byte{}
	}
	fs.raw[pkgPath][analyzer] = buf.Bytes()
	if fs.decoded[pkgPath] == nil {
		fs.decoded[pkgPath] = map[string]any{}
	}
	fs.decoded[pkgPath][analyzer] = v
	return nil
}

// get returns the decoded fact of (pkgPath, analyzer), using the
// analyzer's FactType to allocate the destination on first decode.
func (fs *FactStore) get(pkgPath string, a *Analyzer) (any, bool) {
	if a.FactType == nil {
		return nil, false
	}
	if v, ok := fs.decoded[pkgPath][a.Name]; ok {
		return v, true
	}
	blob, ok := fs.raw[pkgPath][a.Name]
	if !ok {
		return nil, false
	}
	v := a.FactType()
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(v); err != nil {
		// A fact this tool version cannot decode behaves like no fact:
		// the analyzer degrades to its pre-facts (package-local) view.
		return nil, false
	}
	if fs.decoded[pkgPath] == nil {
		fs.decoded[pkgPath] = map[string]any{}
	}
	fs.decoded[pkgPath][a.Name] = v
	return v, true
}

// Merge copies every fact of other into fs (other wins on conflicts —
// in practice (package, analyzer) pairs are written once per run, so
// conflicts only arise when the same dependency's vetx is reachable
// through two import edges, carrying identical bytes).
func (fs *FactStore) Merge(other *FactStore) {
	for pkg, byAnalyzer := range other.raw {
		if fs.raw[pkg] == nil {
			fs.raw[pkg] = map[string][]byte{}
		}
		for analyzer, blob := range byAnalyzer {
			fs.raw[pkg][analyzer] = blob
		}
	}
}

// Encode serializes the whole store (magic header + gob payload).
func (fs *FactStore) Encode() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(factsMagic)
	if err := gob.NewEncoder(&buf).Encode(fs.raw); err != nil {
		return nil, fmt.Errorf("encoding fact store: %v", err)
	}
	return buf.Bytes(), nil
}

// DecodeFacts parses a serialized fact store, rejecting anything whose
// header is not exactly this tool's schema version.
func DecodeFacts(data []byte) (*FactStore, error) {
	if !bytes.HasPrefix(data, []byte(factsMagic)) {
		return nil, fmt.Errorf("not a bmclint facts file (or unknown schema version)")
	}
	raw := map[string]map[string][]byte{}
	if err := gob.NewDecoder(bytes.NewReader(data[len(factsMagic):])).Decode(&raw); err != nil {
		return nil, fmt.Errorf("decoding fact store: %v", err)
	}
	return &FactStore{raw: raw, decoded: map[string]map[string]any{}}, nil
}

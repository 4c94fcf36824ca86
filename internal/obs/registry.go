package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Registry is a named collection of counters, gauges, and histograms.
// Handle creation (Counter/Gauge/Histogram) takes the registry mutex;
// the handles themselves are lock-free atomics, so callers fetch a
// handle once at setup and hit only atomics afterwards. A nil *Registry
// hands out nil handles, whose methods are no-ops — the single branch an
// un-instrumented run pays.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the counter registered under name, creating it on
// first use. The same name always yields the same handle. Nil registries
// return nil (no-op) handles.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use. Nil registries return nil handles.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use. Nil registries return nil handles.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// labelEscaper rewrites the characters the Prometheus text exposition
// format requires escaping inside quoted label values: backslash, the
// double quote, and line feed.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// Name composes a metric name from a base and label key/value pairs in
// the Prometheus inline-label convention:
//
//	Name("racer_conflicts_total", "strategy", "vsids", "state", "warm")
//	  == `racer_conflicts_total{strategy="vsids",state="warm"}`
//
// Labels are emitted in the order given; callers should keep that order
// stable so the same series always maps to the same handle. Label values
// are escaped per the exposition format (`\` → `\\`, `"` → `\"`, newline
// → `\n`), so the composed name is always a single well-formed line and
// WritePrometheus can emit it verbatim.
func Name(base string, labels ...string) string {
	if len(labels) == 0 {
		return base
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		labelEscaper.WriteString(&b, labels[i+1])
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// Snapshot is a point-in-time copy of a registry's contents, keyed by
// full metric name (labels inline). It marshals directly as the -json
// metrics block and subtracts cleanly for per-run deltas.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures the registry's current state. A nil registry yields
// an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.histograms) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.histograms))
		for name, h := range r.histograms {
			s.Histograms[name] = h.snapshot()
		}
	}
	return s
}

// Delta returns this snapshot minus prev: counter and histogram
// count/sum/bucket values subtract (series absent from prev pass
// through); gauges keep their current value (an instantaneous reading
// has no meaningful difference). Zero-valued counter series are dropped,
// so a delta over an idle interval comes back empty. A counter or
// histogram that moved backwards — a reset, e.g. a registry swapped
// underneath a long-lived consumer — reports its current value, the
// Prometheus reset convention, rather than a negative delta.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	d := Snapshot{}
	for name, v := range s.Counters {
		dv := v - prev.Counters[name]
		if v < prev.Counters[name] {
			dv = v
		}
		if dv != 0 {
			if d.Counters == nil {
				d.Counters = map[string]int64{}
			}
			d.Counters[name] = dv
		}
	}
	if len(s.Gauges) > 0 {
		d.Gauges = make(map[string]int64, len(s.Gauges))
		for name, v := range s.Gauges {
			d.Gauges[name] = v
		}
	}
	for name, h := range s.Histograms {
		p := prev.Histograms[name]
		if h.Count < p.Count {
			p = HistogramSnapshot{}
		}
		dh := HistogramSnapshot{Count: h.Count - p.Count, Sum: h.Sum - p.Sum}
		if dh.Count == 0 && dh.Sum == 0 {
			continue
		}
		for i, n := range h.Buckets {
			if dn := n - p.Buckets[i]; dn != 0 {
				if dh.Buckets == nil {
					dh.Buckets = map[int]int64{}
				}
				dh.Buckets[i] = dn
			}
		}
		if d.Histograms == nil {
			d.Histograms = map[string]HistogramSnapshot{}
		}
		d.Histograms[name] = dh
	}
	return d
}

// sortedKeys returns the map's keys in lexical order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteText renders the snapshot as aligned "name value" lines in lexical
// name order — the cmd/bmc -metrics dump.
func (s Snapshot) WriteText(w io.Writer) {
	for _, name := range sortedKeys(s.Counters) {
		fmt.Fprintf(w, "%s %d\n", name, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		fmt.Fprintf(w, "%s %d\n", name, s.Gauges[name])
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		fmt.Fprintf(w, "%s count=%d sum=%d", name, h.Count, h.Sum)
		idxs := make([]int, 0, len(h.Buckets))
		for i := range h.Buckets {
			idxs = append(idxs, i)
		}
		sort.Ints(idxs)
		for _, i := range idxs {
			fmt.Fprintf(w, " le%d=%d", BucketBound(i), h.Buckets[i])
		}
		fmt.Fprintln(w)
	}
}

// WriteText renders the registry's current state (see Snapshot.WriteText).
func (r *Registry) WriteText(w io.Writer) { r.Snapshot().WriteText(w) }

// splitName splits a full metric name into its base and the inline label
// block (empty when unlabeled).
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// WritePrometheus renders the snapshot in Prometheus text exposition
// format (the /metrics endpoint). Counters and gauges emit one sample
// each; histograms emit cumulative _bucket samples with le labels plus
// _sum and _count, following the exposition conventions.
func (s Snapshot) WritePrometheus(w io.Writer) {
	types := map[string]string{}
	var lines []string
	for _, name := range sortedKeys(s.Counters) {
		base, _ := splitName(name)
		types[base] = "counter"
		lines = append(lines, fmt.Sprintf("%s %d", name, s.Counters[name]))
	}
	for _, name := range sortedKeys(s.Gauges) {
		base, _ := splitName(name)
		types[base] = "gauge"
		lines = append(lines, fmt.Sprintf("%s %d", name, s.Gauges[name]))
	}
	for _, name := range sortedKeys(s.Histograms) {
		base, labels := splitName(name)
		types[base] = "histogram"
		h := s.Histograms[name]
		idxs := make([]int, 0, len(h.Buckets))
		for i := range h.Buckets {
			idxs = append(idxs, i)
		}
		sort.Ints(idxs)
		joiner := ","
		open := strings.TrimSuffix(labels, "}")
		if open == "" {
			open = "{"
			joiner = ""
		}
		var cum int64
		for _, i := range idxs {
			cum += h.Buckets[i]
			lines = append(lines, fmt.Sprintf(`%s_bucket%s%sle="%d"} %d`, base, open, joiner, BucketBound(i), cum))
		}
		lines = append(lines, fmt.Sprintf(`%s_bucket%s%sle="+Inf"} %d`, base, open, joiner, h.Count))
		lines = append(lines, fmt.Sprintf("%s_sum%s %d", base, labels, h.Sum))
		lines = append(lines, fmt.Sprintf("%s_count%s %d", base, labels, h.Count))
	}
	emitted := map[string]bool{}
	for _, line := range lines {
		base, _ := splitName(line[:strings.IndexByte(line+" ", ' ')])
		// Strip histogram suffixes back to the base for the TYPE line.
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if t := strings.TrimSuffix(base, suf); t != base && types[t] == "histogram" {
				base = t
				break
			}
		}
		if t, ok := types[base]; ok && !emitted[base] {
			fmt.Fprintf(w, "# TYPE %s %s\n", base, t)
			emitted[base] = true
		}
		fmt.Fprintln(w, line)
	}
}

// WritePrometheus renders the registry's current state (see
// Snapshot.WritePrometheus).
func (r *Registry) WritePrometheus(w io.Writer) { r.Snapshot().WritePrometheus(w) }

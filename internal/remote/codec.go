package remote

// The message codec: the byte layout the package comment specifies, written
// and read field by field without reflection. appendMessage appends; a
// decoder reads one message from a payload and copies everything it keeps,
// so the payload's buffer may be reused for the next frame.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"time"

	"repro/internal/circuit"
	"repro/internal/lits"
	"repro/internal/portfolio"
	"repro/internal/sat"
)

// The presence bits of the payload pointers in a Message, in encoding order.
const (
	hasHello = 1 << iota
	hasRace
	hasResult
	hasCancel
	hasCircuit
	hasAll = hasCircuit<<1 - 1
)

// The fewest bytes one element of each struct list encodes to: every field
// takes at least one byte. A list's count is checked against the bytes left
// divided by its element's minimum before the list is allocated.
const (
	minAttemptBytes = 5  // Name's length, WireOptions' four fields
	minRunBytes     = 2  // N, Bits
	minOutcomeBytes = 18 // Name's length, Status, Stats' twelve fields, Wall, Wait, Canceled, Skipped
)

// appendMessage appends m's encoding to dst.
func appendMessage(dst []byte, m *Message) []byte {
	var present byte
	for i, set := range [...]bool{m.Hello != nil, m.Race != nil, m.Result != nil, m.Cancel != nil, m.Circuit != nil} {
		if set {
			present |= 1 << i
		}
	}
	dst = append(dst, byte(m.Kind))
	dst = binary.AppendUvarint(dst, m.Seq)
	dst = append(dst, present)
	if h := m.Hello; h != nil {
		dst = binary.AppendVarint(dst, int64(h.Version))
		dst = appendString(dst, h.Name)
	}
	if r := m.Race; r != nil {
		dst = appendRaceRequest(dst, r)
	}
	if r := m.Result; r != nil {
		dst = binary.AppendUvarint(dst, r.ID)
		dst = appendRaceResult(dst, &r.Race)
		dst = appendString(dst, r.Err)
	}
	if c := m.Cancel; c != nil {
		dst = binary.AppendUvarint(dst, c.ID)
	}
	if w := m.Circuit; w != nil {
		dst = appendString(dst, w.Query)
		dst = appendBool(dst, w.Step)
		dst = binary.AppendVarint(dst, int64(w.Property))
		dst = appendCircuit(dst, w.Circuit)
	}
	return dst
}

// appendCircuit writes c node by node in NodeID order, the latches' next
// states and the properties. c must validate: every latch has its next
// state.
func appendCircuit(dst []byte, c *circuit.Circuit) []byte {
	dst = binary.AppendUvarint(dst, uint64(c.NumNodes()))
	for id := circuit.NodeID(1); int(id) < c.NumNodes(); id++ {
		dst = append(dst, byte(c.Kind(id)))
		switch c.Kind(id) {
		case circuit.KindLatch:
			dst = appendBool(dst, c.LatchInit(id).IsTrue())
		case circuit.KindAnd:
			a, b := c.Fanins(id)
			dst = binary.AppendUvarint(binary.AppendUvarint(dst, uint64(a)), uint64(b))
		}
	}
	dst = binary.AppendUvarint(dst, uint64(c.NumLatches()))
	for _, id := range c.Latches() {
		dst = binary.AppendUvarint(dst, uint64(c.LatchNext(id)))
	}
	dst = binary.AppendUvarint(dst, uint64(len(c.Properties())))
	for _, p := range c.Properties() {
		dst = binary.AppendUvarint(appendString(dst, p.Name), uint64(p.Bad))
	}
	return dst
}

func appendRaceRequest(dst []byte, r *RaceRequest) []byte {
	dst = binary.AppendUvarint(dst, r.ID)
	dst = appendString(dst, r.Query)
	dst = binary.AppendVarint(dst, int64(r.K))
	dst = appendBool(dst, r.Live)
	dst = appendLits(dst, r.Assumps)
	dst = binary.AppendUvarint(dst, uint64(len(r.Attempts)))
	for i := range r.Attempts {
		dst = appendString(dst, r.Attempts[i].Name)
		dst = appendOptions(dst, &r.Attempts[i].Opts)
	}
	dst = binary.AppendVarint(dst, int64(r.Jobs))
	return binary.AppendVarint(dst, int64(r.Grow.Vars))
}

func appendOptions(dst []byte, o *WireOptions) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(o.Guidance)))
	for _, r := range o.Guidance {
		dst = binary.AppendUvarint(dst, r.N)
		dst = appendBits(dst, r.Bits)
	}
	dst = binary.AppendVarint(dst, o.SwitchAfterDecisions)
	dst = binary.AppendVarint(dst, o.MaxConflicts)
	return binary.AppendVarint(dst, o.DeadlineUnixNano)
}

func appendRaceResult(dst []byte, r *portfolio.RaceResult) []byte {
	dst = binary.AppendVarint(dst, int64(r.Winner))
	dst = append(dst, byte(r.Result.Status))
	dst = binary.AppendUvarint(dst, uint64(len(r.Result.Model)))
	for _, v := range r.Result.Model {
		dst = append(dst, byte(v))
	}
	dst = appendLits(dst, r.Result.FailedAssumptions)
	dst = appendStats(dst, &r.Result.Stats)
	dst = binary.AppendUvarint(dst, uint64(len(r.Outcomes)))
	for i := range r.Outcomes {
		o := &r.Outcomes[i]
		dst = appendString(dst, o.Name)
		dst = append(dst, byte(o.Status))
		dst = appendStats(dst, &o.Stats)
		dst = binary.AppendVarint(dst, int64(o.Wall))
		dst = binary.AppendVarint(dst, int64(o.Wait))
		dst = appendBool(dst, o.Canceled)
		dst = appendBool(dst, o.Skipped)
	}
	var start int64
	if !r.Start.IsZero() {
		start = r.Start.UnixNano()
	}
	dst = binary.AppendVarint(dst, start)
	return binary.AppendVarint(dst, int64(r.Wall))
}

func appendStats(dst []byte, s *sat.Stats) []byte {
	dst = binary.AppendVarint(dst, s.Decisions)
	dst = binary.AppendVarint(dst, s.Implications)
	dst = binary.AppendVarint(dst, s.Conflicts)
	dst = binary.AppendVarint(dst, s.Restarts)
	dst = binary.AppendVarint(dst, s.Learned)
	dst = binary.AppendVarint(dst, s.LearnedLits)
	dst = binary.AppendVarint(dst, s.Deleted)
	dst = binary.AppendVarint(dst, int64(s.MaxLevel))
	dst = appendBool(dst, s.GuidanceSwitched)
	dst = binary.AppendVarint(dst, s.SwitchDecision)
	dst = binary.AppendVarint(dst, s.GuidedDecisions)
	return binary.AppendVarint(dst, int64(s.SolveTime))
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// appendBits writes a float64's bits with their bytes reversed, so that the
// zero low mantissa bytes of small integers and simple fractions become the
// varint's leading zeros: 0 takes one byte, 1.5 and 1000 three.
func appendBits(dst []byte, b uint64) []byte {
	return binary.AppendUvarint(dst, bits.ReverseBytes64(b))
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendLits(dst []byte, ls []lits.Lit) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ls)))
	for _, l := range ls {
		dst = binary.AppendVarint(dst, int64(l.Index()))
	}
	return dst
}

// errTruncated: a field runs past the end of the payload.
var errTruncated = errors.New("remote: message truncated")

// parseMessage decodes one message that fills b exactly. The message shares
// no memory with b.
func parseMessage(b []byte) (*Message, error) {
	d := decoder{b: b}
	m := &Message{Kind: MsgKind(d.byte()), Seq: d.uvarint()}
	present := d.byte()
	if d.err == nil && (m.Kind == 0 || m.Kind >= msgKindEnd) {
		return nil, fmt.Errorf("remote: unknown message kind %d", m.Kind)
	}
	if d.err == nil && present&^hasAll != 0 {
		return nil, fmt.Errorf("remote: unknown payload bits %#x", present)
	}
	if present&hasHello != 0 {
		m.Hello = &Hello{Version: d.int(), Name: d.string()}
	}
	if present&hasRace != 0 {
		m.Race = d.raceRequest()
	}
	if present&hasResult != 0 {
		m.Result = &RaceResponse{ID: d.uvarint(), Race: d.raceResult(), Err: d.string()}
	}
	if present&hasCancel != 0 {
		m.Cancel = &Cancel{ID: d.uvarint()}
	}
	if present&hasCircuit != 0 {
		m.Circuit = d.wireCircuit()
	}
	if d.err == nil && len(d.b) > 0 {
		d.fail(fmt.Errorf("remote: %d bytes after the message", len(d.b)))
	}
	if d.err != nil {
		return nil, d.err
	}
	return m, nil
}

// decoder reads fields off the front of b. The first error sticks: every
// later read returns a zero value, so a parse runs to its end and is judged
// once.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

func (d *decoder) byte() byte {
	if len(d.b) == 0 {
		d.fail(errTruncated)
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail(errTruncated)
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail(errTruncated)
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) int() int { return int(d.varint()) }

func (d *decoder) bool() bool {
	switch v := d.byte(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail(fmt.Errorf("remote: bool byte %d", v))
		return false
	}
}

func (d *decoder) bits() uint64 { return bits.ReverseBytes64(d.uvarint()) }

// count reads a list's length and checks it against the bytes left, each
// element taking at least `least` of them, before the caller allocates the
// list.
func (d *decoder) count(least int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/least) {
		d.fail(fmt.Errorf("remote: a list of %d claims more than the %d bytes left", n, len(d.b)))
		return 0
	}
	return int(n)
}

func (d *decoder) string() string {
	n := d.count(1)
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *decoder) lit() lits.Lit {
	v := d.varint()
	if v < math.MinInt32 || v > math.MaxInt32 {
		d.fail(fmt.Errorf("remote: literal %d out of range", v))
		return 0
	}
	return lits.MkLit(lits.Var(v>>1), v&1 == 1)
}

func (d *decoder) lits() []lits.Lit {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	out := make([]lits.Lit, n)
	for i := range out {
		out[i] = d.lit()
	}
	return out
}

func (d *decoder) raceRequest() *RaceRequest {
	r := &RaceRequest{ID: d.uvarint(), Query: d.string(), K: d.int(), Live: d.bool(), Assumps: d.lits()}
	if n := d.count(minAttemptBytes); n > 0 {
		r.Attempts = make([]WireAttempt, n)
		for i := range r.Attempts {
			r.Attempts[i].Name = d.string()
			d.options(&r.Attempts[i].Opts)
		}
	}
	r.Jobs = d.int()
	r.Grow = portfolio.Growth{Vars: d.int()}
	return r
}

func (d *decoder) wireCircuit() *WireCircuit {
	w := &WireCircuit{Query: d.string(), Step: d.bool(), Property: d.int(), Circuit: d.circuit()}
	if n := len(w.Circuit.Properties()); d.err == nil && (w.Property < 0 || w.Property >= n) {
		d.fail(fmt.Errorf("remote: property %d of a circuit with %d", w.Property, n))
	}
	return w
}

// circuit rebuilds a circuit through the builder, so every node gets the ID
// it had. The node count is checked against the bytes left before a node is
// made; a gate's fanins must point below it and make a new gate (one the
// builder folds or has already made came from no circuit); every latch
// must get a next state. On an error the circuit is left part-built.
func (d *decoder) circuit() *circuit.Circuit {
	c := circuit.New("")
	n := d.count(1) // every node past the constant takes a byte at least
	if d.err == nil && n == 0 {
		d.fail(errors.New("remote: a circuit without its constant node"))
	}
	for id := 1; id < n && d.err == nil; id++ {
		switch kind := circuit.NodeKind(d.byte()); kind {
		case circuit.KindInput:
			c.Input("")
		case circuit.KindLatch:
			c.Latch("", d.bool())
		case circuit.KindAnd:
			if a, b := d.signal(id), d.signal(id); d.err == nil && c.And(a, b) != circuit.MkSignal(circuit.NodeID(id), false) {
				d.fail(fmt.Errorf("remote: AND n%d (%v, %v) folds or repeats a gate", id, a, b))
			}
		default:
			d.fail(fmt.Errorf("remote: node n%d of kind %d", id, kind))
		}
	}
	latches := c.Latches()
	if nexts := d.count(1); d.err == nil && nexts != len(latches) {
		d.fail(fmt.Errorf("remote: %d next states for %d latches", nexts, len(latches)))
	}
	for i := 0; i < len(latches) && d.err == nil; i++ {
		c.SetNext(circuit.MkSignal(latches[i], false), d.signal(n))
	}
	for i, props := 0, d.count(2); i < props && d.err == nil; i++ {
		name := d.string()
		c.AddProperty(name, d.signal(n))
	}
	return c
}

// signal reads an edge to a node below n.
func (d *decoder) signal(n int) circuit.Signal {
	if v := d.uvarint(); d.err == nil && v < uint64(n)<<1 {
		return circuit.Signal(v)
	}
	d.fail(fmt.Errorf("remote: a signal past node n%d", n-1))
	return circuit.False
}

func (d *decoder) options(o *WireOptions) {
	if n := d.count(minRunBytes); n > 0 {
		o.Guidance = make(GuidanceRuns, n)
		for i := range o.Guidance {
			o.Guidance[i] = GuidanceRun{N: d.uvarint(), Bits: d.bits()}
			if o.Guidance[i].N == 0 && d.err == nil {
				d.fail(errors.New("remote: empty guidance run"))
			}
		}
	}
	o.SwitchAfterDecisions = d.varint()
	o.MaxConflicts = d.varint()
	o.DeadlineUnixNano = d.varint()
}

func (d *decoder) raceResult() portfolio.RaceResult {
	var r portfolio.RaceResult
	r.Winner = d.int()
	r.Result.Status = sat.Status(d.byte())
	if n := d.count(1); n > 0 {
		r.Result.Model = make(lits.Assignment, n)
		for i := range r.Result.Model {
			r.Result.Model[i] = lits.TriBool(d.byte())
		}
	}
	r.Result.FailedAssumptions = d.lits()
	d.stats(&r.Result.Stats)
	if n := d.count(minOutcomeBytes); n > 0 {
		r.Outcomes = make([]portfolio.AttemptOutcome, n)
		for i := range r.Outcomes {
			o := &r.Outcomes[i]
			o.Name = d.string()
			o.Status = sat.Status(d.byte())
			d.stats(&o.Stats)
			o.Wall = time.Duration(d.varint())
			o.Wait = time.Duration(d.varint())
			o.Canceled = d.bool()
			o.Skipped = d.bool()
		}
	}
	if start := d.varint(); start != 0 {
		r.Start = time.Unix(0, start)
	}
	r.Wall = time.Duration(d.varint())
	return r
}

func (d *decoder) stats(s *sat.Stats) {
	s.Decisions = d.varint()
	s.Implications = d.varint()
	s.Conflicts = d.varint()
	s.Restarts = d.varint()
	s.Learned = d.varint()
	s.LearnedLits = d.varint()
	s.Deleted = d.varint()
	s.MaxLevel = d.int()
	s.GuidanceSwitched = d.bool()
	s.SwitchDecision = d.varint()
	s.GuidedDecisions = d.varint()
	s.SolveTime = time.Duration(d.varint())
}

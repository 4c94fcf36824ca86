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

	"repro/internal/cnf"
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
	hasClauses
	hasAll = hasClauses<<1 - 1
)

// The fewest bytes one element of each struct list encodes to: every field
// takes at least one byte. A list's count is checked against the bytes left
// divided by its element's minimum before the list is allocated.
const (
	minFrameBytes   = 4  // K, NumVars, the clause list's two counts
	minAttemptBytes = 5  // Name's length, WireOptions' four fields
	minRunBytes     = 2  // N, Bits
	minOutcomeBytes = 18 // Name's length, Status, Stats' twelve fields, Wall, Wait, Canceled, Skipped
)

// appendMessage appends m's encoding to dst.
func appendMessage(dst []byte, m *Message) []byte {
	var present byte
	if m.Hello != nil {
		present |= hasHello
	}
	if m.Race != nil {
		present |= hasRace
	}
	if m.Result != nil {
		present |= hasResult
	}
	if m.Cancel != nil {
		present |= hasCancel
	}
	if m.Clauses != nil {
		present |= hasClauses
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
		dst = appendClauses(dst, r.Exported)
		dst = appendString(dst, r.Err)
	}
	if c := m.Cancel; c != nil {
		dst = binary.AppendUvarint(dst, c.ID)
	}
	if p := m.Clauses; p != nil {
		dst = appendString(dst, p.Query)
		dst = binary.AppendVarint(dst, int64(p.K))
		dst = appendString(dst, p.From)
		dst = appendClauses(dst, p.Clauses)
	}
	return dst
}

func appendRaceRequest(dst []byte, r *RaceRequest) []byte {
	dst = binary.AppendUvarint(dst, r.ID)
	dst = appendString(dst, r.Query)
	dst = binary.AppendVarint(dst, int64(r.K))
	dst = appendBool(dst, r.Live)
	dst = binary.AppendVarint(dst, int64(r.NumVars))
	dst = appendClauses(dst, r.Formula)
	dst = binary.AppendUvarint(dst, uint64(len(r.Frames)))
	for i := range r.Frames {
		fr := &r.Frames[i]
		dst = binary.AppendVarint(dst, int64(fr.K))
		dst = binary.AppendVarint(dst, int64(fr.NumVars))
		dst = appendClauses(dst, fr.Clauses)
	}
	dst = appendLits(dst, r.Assumps)
	dst = binary.AppendUvarint(dst, uint64(len(r.Attempts)))
	for i := range r.Attempts {
		dst = appendString(dst, r.Attempts[i].Name)
		dst = appendOptions(dst, &r.Attempts[i].Opts)
	}
	dst = binary.AppendVarint(dst, int64(r.Jobs))
	dst = binary.AppendVarint(dst, int64(r.ExportMaxLen))
	dst = binary.AppendVarint(dst, int64(r.ExportMaxLBD))
	dst = binary.AppendVarint(dst, int64(r.ExportBudget))
	dst = binary.AppendVarint(dst, int64(r.Grow.Vars))
	return binary.AppendVarint(dst, int64(r.Grow.Clauses))
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
	dst = binary.AppendVarint(dst, int64(r.Wall))
	return appendClauses(dst, r.Foreign)
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

// appendClauses writes a clause list: its clause count and literal total,
// then each clause's length and literals.
func appendClauses(dst []byte, cls []cnf.Clause) []byte {
	total := 0
	for _, cl := range cls {
		total += len(cl)
	}
	dst = binary.AppendUvarint(dst, uint64(len(cls)))
	dst = binary.AppendUvarint(dst, uint64(total))
	for _, cl := range cls {
		dst = appendLits(dst, cl)
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
		m.Result = &RaceResponse{ID: d.uvarint(), Race: d.raceResult(), Exported: d.clauses(), Err: d.string()}
	}
	if present&hasCancel != 0 {
		m.Cancel = &Cancel{ID: d.uvarint()}
	}
	if present&hasClauses != 0 {
		m.Clauses = &ClausePayload{Query: d.string(), K: d.int(), From: d.string(), Clauses: d.clauses()}
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

// clauses reads a clause list into one literal array and one header array;
// each clause is capped at its own end, so appending to one cannot write
// over the next.
func (d *decoder) clauses() []cnf.Clause {
	n := d.count(1)
	total := d.count(1)
	if d.err == nil && n > len(d.b)-total {
		d.fail(fmt.Errorf("remote: %d clauses and %d literals claim more than the %d bytes left", n, total, len(d.b)))
	}
	if d.err != nil || n == 0 {
		if total != 0 {
			d.fail(fmt.Errorf("remote: an empty clause list claims %d literals", total))
		}
		return nil
	}
	flat := make([]lits.Lit, total)
	out := make([]cnf.Clause, n)
	at := 0
	for i := range out {
		l := d.uvarint()
		if l > uint64(total-at) {
			d.fail(fmt.Errorf("remote: clause list's literals exceed its total %d", total))
			return nil
		}
		end := at + int(l)
		for j := at; j < end; j++ {
			flat[j] = d.lit()
		}
		out[i] = flat[at:end:end]
		at = end
	}
	if d.err == nil && at != total {
		d.fail(fmt.Errorf("remote: clause list holds %d literals, its total says %d", at, total))
	}
	return out
}

func (d *decoder) raceRequest() *RaceRequest {
	r := &RaceRequest{
		ID: d.uvarint(), Query: d.string(), K: d.int(), Live: d.bool(),
		NumVars: d.int(), Formula: d.clauses(),
	}
	if n := d.count(minFrameBytes); n > 0 {
		r.Frames = make([]WireFrame, n)
		for i := range r.Frames {
			r.Frames[i] = WireFrame{K: d.int(), NumVars: d.int(), Clauses: d.clauses()}
		}
	}
	r.Assumps = d.lits()
	if n := d.count(minAttemptBytes); n > 0 {
		r.Attempts = make([]WireAttempt, n)
		for i := range r.Attempts {
			r.Attempts[i].Name = d.string()
			d.options(&r.Attempts[i].Opts)
		}
	}
	r.Jobs, r.ExportMaxLen, r.ExportMaxLBD, r.ExportBudget = d.int(), d.int(), d.int(), d.int()
	r.Grow = portfolio.Growth{Vars: d.int(), Clauses: d.int()}
	return r
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
	r.Foreign = d.clauses()
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

// Package remote is the distributed portfolio: a worker daemon
// (cmd/bmcworker) that holds per-(connection, query, strategy)
// persistent mirror solvers and executes cold and warm races on demand,
// and a coordinator-side Executor that implements engine.Executor by
// fanning each depth's attempts out across its worker set, returning on
// the first verdict with cancellation frames to the losers, and
// forwarding clause-bus payloads over the wire under per-link
// length/budget filters with a ReserveFirst-style import-free diversity
// worker.
//
// # Wire protocol
//
// The transport is a plain byte stream (TCP in production, net.Pipe in
// tests) carrying frames:
//
//	length   4 bytes, big-endian: the payload's size, 1..MaxFrameBytes
//	number   uvarint: the frame's place on its connection, counted from 0
//	         in each direction
//	message  the rest of the payload
//
// The length is checked against the receiver's bound before anything is
// allocated, so a header bomb costs nothing (FuzzWireDecode pins this). A
// frame whose number is not the next one — a duplicate, a replay, one of a
// swapped pair — fails Conn.Recv, and the link ends as it does on any
// corrupt frame, instead of applying the frame twice or out of order.
//
// A message is written field by field, without reflection or type
// descriptors (codec.go), from these primitives:
//
//	uint     uvarint (encoding/binary)
//	int      zigzag varint (binary.AppendVarint): every Go int, literal,
//	         duration and counter
//	bool     one byte, 0 or 1
//	bits     a float64's bits (GuidanceRun.Bits) as a uint with their
//	         bytes reversed, so 0 takes one byte and 1.5 or 1000 three
//	status   one byte (sat.Status, lits.TriBool)
//	string   uint length, then the bytes
//	list     uint count, then the elements
//	clauses  uint clause count, uint literal total, then per clause a uint
//	         length and its literals as ints
//	time     int: Unix nanoseconds, 0 for the zero time
//
// The message is its Kind (one byte), Seq (uint), and a byte whose bits
// 0..4 say which of Hello, Race, Result, Cancel and Clauses follow, then
// those, in that order; each struct is its exported fields in declaration
// order, nested structs inline and slices as lists. A guidance array
// crosses as a list of runs (GuidanceRuns): N scores equal bit for bit to
// the float with the bits Bits. Before a list is allocated its count is
// checked against the bytes left, each element taking at least one; a
// clause list's total must equal the sum of its lengths; and the message
// must end where the payload does.
//
// The coordinator opens the conversation with Hello and the worker
// answers HelloAck; version skew fails the handshake. After that the
// coordinator sends RaceRequest, Cancel, ClausePayload, and Ping
// frames; the worker answers with RaceResponse and Pong frames. Races
// are correlated by request ID, so a worker can run races for distinct
// queries concurrently (the k-induction base and step pools race in
// parallel) while each query's races stay strictly sequential.
//
// # Warm state over the wire
//
// A live (RaceLive) race cannot ship its solvers, so the protocol ships
// what built them instead: each RaceRequest carries the unrolled frames
// the worker has not seen yet (the coordinator tracks a per-link
// high-water mark, reset on reconnect so a fresh worker replays from
// frame zero) plus each attempt's hook-free solver options — guidance,
// budgets, deadline — as the pool computed them for the depth, and the
// size the pool's growth rule hints its solvers for (RaceRequest.Grow). The
// worker keeps the frames and loads a mirror through the routine racer.Pool
// loads its own solvers with (racer.Feed.CatchUp), when the mirror is about
// to search: the mirror is made then, sized by the hint, and its guidance
// runs are expanded then, over the one array the mirror keeps. A mirror is
// the same solver the pool would have raced locally, and verdicts are
// equivalent by construction; one that never searches holds nothing.
package remote

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/cnf"
	"repro/internal/lits"
	"repro/internal/obs"
	"repro/internal/portfolio"
	"repro/internal/sat"
)

// ProtocolVersion is bumped on any wire-incompatible change; the
// handshake rejects mismatched peers.
const ProtocolVersion = 4

// DefaultMaxFrameBytes bounds one frame's payload (64 MiB — a deep
// unrolling's frame batch fits with room to spare). The bound is
// checked against the length prefix before any allocation.
const DefaultMaxFrameBytes = 64 << 20

// headerLen is the length-prefix size.
const headerLen = 4

// Frame decode failures distinguishable by callers and tests.
var (
	// ErrFrameTooLarge: the length prefix exceeds the receiver's bound.
	ErrFrameTooLarge = errors.New("remote: frame exceeds size bound")
	// ErrEmptyFrame: a zero-length payload (no valid Message encodes to
	// zero bytes).
	ErrEmptyFrame = errors.New("remote: empty frame")
	// ErrFrameOrder: a frame's number is not the next one on its
	// connection — it was duplicated, replayed or reordered.
	ErrFrameOrder = errors.New("remote: frame out of order")
)

// MsgKind discriminates the Message envelope.
type MsgKind uint8

// Message kinds.
const (
	MsgHello MsgKind = iota + 1
	MsgHelloAck
	MsgRace
	MsgRaceResult
	MsgCancel
	MsgClauses
	MsgPing
	MsgPong
	msgKindEnd // sentinel: first invalid kind
)

// String implements fmt.Stringer for log lines.
func (k MsgKind) String() string {
	switch k {
	case MsgHello:
		return "hello"
	case MsgHelloAck:
		return "hello_ack"
	case MsgRace:
		return "race"
	case MsgRaceResult:
		return "race_result"
	case MsgCancel:
		return "cancel"
	case MsgClauses:
		return "clauses"
	case MsgPing:
		return "ping"
	case MsgPong:
		return "pong"
	default:
		return fmt.Sprintf("msgkind(%d)", uint8(k))
	}
}

// Message is the wire envelope: a kind plus the payload field that kind
// uses (the rest stay nil and cost nothing on the wire). Ping/Pong use
// Seq alone.
type Message struct {
	Kind    MsgKind
	Seq     uint64
	Hello   *Hello
	Race    *RaceRequest
	Result  *RaceResponse
	Cancel  *Cancel
	Clauses *ClausePayload
}

// Hello is the handshake payload, sent by the coordinator (Name is its
// session label) and echoed by the worker as MsgHelloAck (Name is the
// worker's label).
type Hello struct {
	Version int
	Name    string
}

// WireOptions mirrors the serializable part of sat.Options: the per-race
// guidance and its switch, and the budgets. Hooks (Stop, Recorder,
// Metrics) are process-local and never cross the wire, and the solver's
// tuning is the same constants on both ends. The deadline travels as
// absolute wall-clock nanoseconds; meaningful across machines only to
// clock-sync precision, exact over loopback.
type WireOptions struct {
	Guidance             GuidanceRuns
	SwitchAfterDecisions int64
	MaxConflicts         int64
	DeadlineUnixNano     int64
}

// GuidanceRun is N consecutive guidance scores, each the float64 whose
// bits are Bits.
type GuidanceRun struct {
	N    uint64
	Bits uint64
}

// GuidanceRuns is a guidance array as it crosses the wire: its runs of
// scores equal bit for bit, from index 0 on, so the worker rebuilds the
// exact array. Nil is no guidance. Most of a board's scores are zero and a
// time-axis frame's variables share one score, so the runs are far fewer
// than the scores, and an idle mirror never expands them.
type GuidanceRuns []GuidanceRun

// compressGuidance returns g's runs.
func compressGuidance(g []float64) GuidanceRuns {
	if len(g) == 0 {
		return nil
	}
	n := 1
	for i := 1; i < len(g); i++ {
		if math.Float64bits(g[i]) != math.Float64bits(g[i-1]) {
			n++
		}
	}
	runs := make(GuidanceRuns, 0, n)
	for i := 0; i < len(g); {
		b := math.Float64bits(g[i])
		j := i + 1
		for j < len(g) && math.Float64bits(g[j]) == b {
			j++
		}
		runs = append(runs, GuidanceRun{N: uint64(j - i), Bits: b})
		i = j
	}
	return runs
}

// covers checks, without expanding anything, that the runs hold exactly n
// scores — the guidance of a formula of n-1 variables — or none at all.
// It is the worker's bound against a peer that claims a run of 2^40.
func (r GuidanceRuns) covers(n int) error {
	if len(r) == 0 {
		return nil
	}
	var sum uint64
	for _, run := range r {
		if run.N > uint64(n)-sum {
			return fmt.Errorf("remote: guidance runs hold more than the %d scores of %d variables", n, n-1)
		}
		sum += run.N
	}
	if sum != uint64(n) {
		return fmt.Errorf("remote: guidance runs hold %d scores, %d variables need %d", sum, n-1, n)
	}
	return nil
}

// expand writes the scores of runs that covers(n) accepted over dst's array
// where it holds n of them, into a new array with room for max(n, room)
// otherwise; no runs give nil.
func (r GuidanceRuns) expand(dst []float64, n, room int) []float64 {
	if len(r) == 0 {
		return nil
	}
	if cap(dst) < n {
		dst = make([]float64, 0, max(n, room))
	}
	dst = dst[:0]
	for _, run := range r {
		f := math.Float64frombits(run.Bits)
		for range run.N {
			dst = append(dst, f)
		}
	}
	return dst
}

// toWireOptions flattens a sat.Options into its wire mirror, guidance as
// runs. The hooks do not cross, so a remotely executed attempt records no
// proof — a documented cost of shipping the race elsewhere.
func toWireOptions(o sat.Options) WireOptions {
	w := WireOptions{
		Guidance:             compressGuidance(o.Guidance),
		SwitchAfterDecisions: o.SwitchAfterDecisions,
		MaxConflicts:         o.MaxConflicts,
	}
	if !o.Deadline.IsZero() {
		w.DeadlineUnixNano = o.Deadline.UnixNano()
	}
	return w
}

// toSatOptions rebuilds solver options from the wire mirror, all but the
// guidance, which the caller expands where it is needed.
func (w WireOptions) toSatOptions() sat.Options {
	o := sat.Options{
		SwitchAfterDecisions: w.SwitchAfterDecisions,
		MaxConflicts:         w.MaxConflicts,
	}
	if w.DeadlineUnixNano != 0 {
		o.Deadline = time.Unix(0, w.DeadlineUnixNano)
	}
	return o
}

// WireAttempt is one raced strategy: its name and the solver options
// that configure (cold) or re-guide (live) the worker-side solver.
type WireAttempt struct {
	Name string
	Opts WireOptions
}

// WireFrame is one unrolled depth's delta formula. K is the depth;
// frames for a query always arrive contiguously from the worker's
// current high-water mark. NumVars is the total variable count after
// this frame (racer.Pool feeds the same number to sat.Solver.AddVars).
type WireFrame struct {
	K       int
	NumVars int
	Clauses []cnf.Clause
}

// RaceRequest submits one race. Live races (Live true) address the
// per-query mirror solvers, carrying the frames the worker is missing,
// the depth's assumption list, and Grow, the size the coordinator's pool
// hints its solvers for at this depth, which the mirrors are hinted for
// too; cold races carry the whole formula and build throwaway solvers.
// ExportMaxLen/ExportBudget, when nonzero, ask a live race to return its
// mirrors' fresh learned clauses (the clause bus's worker-to-coordinator
// half); ExportMaxLBD completes the quality filter.
type RaceRequest struct {
	ID    uint64
	Query string
	K     int
	Live  bool

	// Cold races.
	NumVars int
	Formula []cnf.Clause

	// Live races.
	Frames  []WireFrame
	Assumps []lits.Lit

	Attempts []WireAttempt
	Jobs     int

	ExportMaxLen int
	ExportMaxLBD int
	ExportBudget int

	Grow portfolio.Growth
}

// RaceResponse answers a RaceRequest. Race.Winner indexes the request's
// Attempts slice (the coordinator maps it back to its global attempt
// order). Exported carries the mirrors' fresh learned clauses when the
// request asked for them. Err, when non-empty, reports a request the
// worker could not run (the coordinator treats it like a lost worker
// and re-races locally).
type RaceResponse struct {
	ID       uint64
	Race     portfolio.RaceResult
	Exported []cnf.Clause
	Err      string
}

// Cancel asks the worker to close the stop channel of the identified
// race. Unknown IDs are ignored (the race may have just finished).
type Cancel struct {
	ID uint64
}

// ClausePayload forwards one clause-bus export: query and depth it came
// from, the exporting source ("strategy" locally, "worker:addr" when
// rebroadcast), and the clauses. The worker imports them into the
// query's mirrors before that query's next race.
type ClausePayload struct {
	Query   string
	K       int
	From    string
	Clauses []cnf.Clause
}

// appendFrame appends the frame numbered no that carries m, length prefix
// included, to dst.
func appendFrame(dst []byte, no uint64, m *Message) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = binary.AppendUvarint(dst, no)
	dst = appendMessage(dst, m)
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-headerLen))
	return dst
}

// readFrame reads one frame from r, allocating at most maxFrame bytes for
// the payload (the bound is enforced before the allocation — the
// header-bomb discipline) in *buf, which it grows as needed and leaves for
// the next call. It returns the frame's number, its message and its total
// size on the wire.
func readFrame(r io.Reader, maxFrame int, buf *[]byte) (uint64, *Message, int, error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrameBytes
	}
	b := *buf
	if cap(b) < headerLen {
		b = make([]byte, headerLen)
	}
	b = b[:headerLen]
	*buf = b
	if _, err := io.ReadFull(r, b); err != nil {
		return 0, nil, 0, err
	}
	n := binary.BigEndian.Uint32(b)
	if n == 0 {
		return 0, nil, headerLen, ErrEmptyFrame
	}
	if n > uint32(min(maxFrame, math.MaxUint32)) {
		return 0, nil, headerLen, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, maxFrame)
	}
	if cap(b) < int(n) {
		b = make([]byte, n, min(max(int(n), 2*cap(b)), maxFrame))
		*buf = b
	}
	b = b[:n]
	if _, err := io.ReadFull(r, b); err != nil {
		return 0, nil, headerLen, fmt.Errorf("remote: truncated frame: %w", err)
	}
	no, k := binary.Uvarint(b)
	if k <= 0 {
		return 0, nil, headerLen + int(n), errors.New("remote: frame number truncated")
	}
	m, err := parseMessage(b[k:])
	if err != nil {
		return 0, nil, headerLen + int(n), fmt.Errorf("remote: frame decode: %w", err)
	}
	return no, m, headerLen + int(n), nil
}

// wireStats is the byte/frame accounting one Conn feeds; handles are
// nil-safe, so a detached Conn pays one branch per frame.
type wireStats struct {
	framesSent *obs.Counter
	framesRecv *obs.Counter
	bytesSent  *obs.Counter
	bytesRecv  *obs.Counter
}

// Conn frames Messages over a net.Conn: writes are serialized by an
// internal mutex (race goroutines, the heartbeat, and the reader's pong
// replies share one connection), reads are single-reader by convention
// (each side runs exactly one read loop). Deadlines are per call. Each
// direction numbers its frames, and Recv accepts only the next number.
type Conn struct {
	nc       net.Conn
	maxFrame int
	stats    wireStats

	wmu  sync.Mutex
	wbuf []byte
	sent uint64 // frames written

	rbuf []byte // the reader's payload buffer
	recv uint64 // frames accepted
}

// NewConn wraps a byte stream. maxFrame <= 0 selects
// DefaultMaxFrameBytes; the length prefix caps it at 4 GiB − 1.
func NewConn(nc net.Conn, maxFrame int) *Conn {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrameBytes
	}
	return &Conn{nc: nc, maxFrame: min(maxFrame, math.MaxUint32)}
}

// Send encodes and writes one frame. A positive timeout sets the write
// deadline; zero writes without one. Send never partially interleaves
// frames: the frame is staged in a buffer the Conn reuses and written in
// one Write call.
func (c *Conn) Send(m *Message, timeout time.Duration) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	b := appendFrame(c.wbuf[:0], c.sent, m)
	c.wbuf = b
	if payload := len(b) - headerLen; payload > c.maxFrame {
		return fmt.Errorf("%w: encoding %d bytes > %d", ErrFrameTooLarge, payload, c.maxFrame)
	}
	if timeout > 0 {
		if err := c.nc.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
			return err
		}
	}
	c.sent++
	if _, err := c.nc.Write(b); err != nil {
		return err
	}
	c.stats.framesSent.Inc()
	c.stats.bytesSent.Add(int64(len(b)))
	return nil
}

// Recv reads one frame. A positive timeout sets the read deadline (the
// caller's liveness bound — heartbeats must arrive within it); zero
// blocks indefinitely. A frame that is not the next one fails with
// ErrFrameOrder.
func (c *Conn) Recv(timeout time.Duration) (*Message, error) {
	if timeout > 0 {
		if err := c.nc.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return nil, err
		}
	}
	no, m, n, err := readFrame(c.nc, c.maxFrame, &c.rbuf)
	if err != nil {
		return nil, err
	}
	c.stats.framesRecv.Inc()
	c.stats.bytesRecv.Add(int64(n))
	if no != c.recv {
		return nil, fmt.Errorf("%w: frame %d, want %d", ErrFrameOrder, no, c.recv)
	}
	c.recv++
	return m, nil
}

// Close closes the underlying connection; any blocked Send/Recv
// returns with an error.
func (c *Conn) Close() error { return c.nc.Close() }

// RemoteAddr exposes the peer address for log lines and metric labels.
func (c *Conn) RemoteAddr() string {
	if a := c.nc.RemoteAddr(); a != nil {
		return a.String()
	}
	return "unknown"
}

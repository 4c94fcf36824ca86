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
// tests) carrying length-prefixed gob frames: a 4-byte big-endian
// payload length followed by one gob-encoded Message. Every frame is a
// self-contained gob stream — type descriptors are resent per frame —
// so a decoder can pick up a connection at any frame boundary and a
// corrupt frame cannot poison its successors. The length prefix is
// validated against a configurable bound before any allocation, so a
// header bomb costs nothing (FuzzWireDecode pins this).
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
// budgets, deadline — as the pool computed them for the depth. The worker
// keeps the frames and loads a mirror through the routine racer.Pool loads
// its own solvers with (racer.Feed.CatchUp), when the mirror is about to
// search, so a mirror is the same solver the pool would have raced
// locally, and verdicts are equivalent by construction.
package remote

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
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
const ProtocolVersion = 1

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

// WireOptions mirrors the serializable subset of sat.Options: tuning
// parameters, budgets, and per-race guidance. Hooks (Stop, Recorder,
// Metrics) are process-local and never cross the wire. The deadline
// travels as absolute wall-clock nanoseconds; meaningful across
// machines only to clock-sync precision, exact over loopback.
type WireOptions struct {
	RescoreInterval      int
	RestartFirst         int
	RestartInc           float64
	LubyRestarts         bool
	NoRestarts           bool
	MaxLearntFrac        float64
	MaxLearntInc         float64
	MinimizeLearned      bool
	PhaseSaving          bool
	Guidance             []float64
	SwitchAfterDecisions int64
	MaxConflicts         int64
	MaxDecisions         int64
	DeadlineUnixNano     int64
	StopCheckEvery       int
}

// toWireOptions flattens a sat.Options into its wire mirror; the hooks do
// not cross.
func toWireOptions(o sat.Options) WireOptions {
	w := WireOptions{
		RescoreInterval:      o.RescoreInterval,
		RestartFirst:         o.RestartFirst,
		RestartInc:           o.RestartInc,
		LubyRestarts:         o.LubyRestarts,
		NoRestarts:           o.NoRestarts,
		MaxLearntFrac:        o.MaxLearntFrac,
		MaxLearntInc:         o.MaxLearntInc,
		MinimizeLearned:      o.MinimizeLearned,
		PhaseSaving:          o.PhaseSaving,
		Guidance:             o.Guidance,
		SwitchAfterDecisions: o.SwitchAfterDecisions,
		MaxConflicts:         o.MaxConflicts,
		MaxDecisions:         o.MaxDecisions,
		StopCheckEvery:       o.StopCheckEvery,
	}
	if !o.Deadline.IsZero() {
		w.DeadlineUnixNano = o.Deadline.UnixNano()
	}
	return w
}

// toSatOptions rebuilds solver options from the wire mirror.
func (w WireOptions) toSatOptions() sat.Options {
	o := sat.Options{
		RescoreInterval:      w.RescoreInterval,
		RestartFirst:         w.RestartFirst,
		RestartInc:           w.RestartInc,
		LubyRestarts:         w.LubyRestarts,
		NoRestarts:           w.NoRestarts,
		MaxLearntFrac:        w.MaxLearntFrac,
		MaxLearntInc:         w.MaxLearntInc,
		MinimizeLearned:      w.MinimizeLearned,
		PhaseSaving:          w.PhaseSaving,
		Guidance:             w.Guidance,
		SwitchAfterDecisions: w.SwitchAfterDecisions,
		MaxConflicts:         w.MaxConflicts,
		MaxDecisions:         w.MaxDecisions,
		StopCheckEvery:       w.StopCheckEvery,
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
// per-query mirror solvers, carrying the frames the worker is missing
// and the depth's assumption list; cold races carry the whole formula
// and build throwaway solvers. ExportMaxLen/ExportBudget, when nonzero,
// ask a live race to return its mirrors' fresh learned clauses (the
// clause bus's worker-to-coordinator half); ExportMaxLBD completes the
// quality filter.
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

// decodeMessage decodes one frame payload. Self-contained: every frame
// carries its own gob type descriptors.
func decodeMessage(payload []byte) (*Message, error) {
	var m Message
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&m); err != nil {
		return nil, fmt.Errorf("remote: frame decode: %w", err)
	}
	if m.Kind == 0 || m.Kind >= msgKindEnd {
		return nil, fmt.Errorf("remote: unknown message kind %d", m.Kind)
	}
	return &m, nil
}

// readMessage reads one length-prefixed frame from r, allocating at
// most maxFrame bytes for the payload (the bound is enforced before the
// allocation — the header-bomb discipline). It returns the decoded
// Message and the frame's total size on the wire.
func readMessage(r io.Reader, maxFrame int) (*Message, int, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return nil, headerLen, ErrEmptyFrame
	}
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrameBytes
	}
	if n > uint32(maxFrame) {
		return nil, headerLen, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, maxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, headerLen, fmt.Errorf("remote: truncated frame: %w", err)
	}
	m, err := decodeMessage(payload)
	return m, headerLen + int(n), err
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
// (each side runs exactly one read loop). Deadlines are per call.
type Conn struct {
	nc       net.Conn
	maxFrame int
	stats    wireStats

	wmu  sync.Mutex
	wbuf bytes.Buffer
}

// NewConn wraps a byte stream. maxFrame <= 0 selects
// DefaultMaxFrameBytes.
func NewConn(nc net.Conn, maxFrame int) *Conn {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrameBytes
	}
	return &Conn{nc: nc, maxFrame: maxFrame}
}

// Send encodes and writes one frame. A positive timeout sets the write
// deadline; zero writes without one. Send never partially interleaves
// frames: the payload is staged in a buffer and written with the header
// in one Write call.
func (c *Conn) Send(m *Message, timeout time.Duration) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf.Reset()
	c.wbuf.Write(make([]byte, headerLen))
	if err := gob.NewEncoder(&c.wbuf).Encode(m); err != nil {
		return fmt.Errorf("remote: frame encode: %w", err)
	}
	payload := c.wbuf.Len() - headerLen
	if payload > c.maxFrame {
		return fmt.Errorf("%w: encoding %d bytes > %d", ErrFrameTooLarge, payload, c.maxFrame)
	}
	b := c.wbuf.Bytes()
	binary.BigEndian.PutUint32(b[:headerLen], uint32(payload))
	if timeout > 0 {
		if err := c.nc.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
			return err
		}
	}
	if _, err := c.nc.Write(b); err != nil {
		return err
	}
	c.stats.framesSent.Inc()
	c.stats.bytesSent.Add(int64(len(b)))
	return nil
}

// Recv reads one frame. A positive timeout sets the read deadline (the
// caller's liveness bound — heartbeats must arrive within it); zero
// blocks indefinitely.
func (c *Conn) Recv(timeout time.Duration) (*Message, error) {
	if timeout > 0 {
		if err := c.nc.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return nil, err
		}
	}
	m, n, err := readMessage(c.nc, c.maxFrame)
	if err != nil {
		return nil, err
	}
	c.stats.framesRecv.Inc()
	c.stats.bytesRecv.Add(int64(n))
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

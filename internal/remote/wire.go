// Package remote is the distributed portfolio: a worker daemon
// (cmd/bmcworker) that holds per-(connection, query, strategy)
// persistent mirror solvers and executes cold and warm races on demand,
// and a coordinator-side Executor that implements engine.Executor by
// fanning each depth's attempts out across its worker set, returning on
// the first verdict with cancellation frames to the losers.
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
//	time     int: Unix nanoseconds, 0 for the zero time
//	circuit  uint node count, the constant's included; per later node, in
//	         NodeID order, its kind byte, then a latch's initial value
//	         (bool) or an AND gate's fanins (two uints, node<<1|negated);
//	         the latches' next states (a list of uints); the properties
//	         (a list of string name, uint bad signal)
//
// The message is its Kind (one byte), Seq (uint), and a byte whose bits
// 0..4 say which of Hello, Race, Result, Cancel and Circuit follow, then
// those, in that order; each struct is its exported fields in
// declaration order, nested structs inline and slices as lists. A guidance
// array crosses as a list of runs (GuidanceRuns): N scores equal bit for
// bit to the float with the bits Bits. Before a list is allocated its
// count is checked against the bytes left, each element taking at least
// one; and the message must end where the payload does. A circuit is rebuilt through
// the circuit builder, so each node keeps its NodeID; the decoder rejects
// an AND gate whose fanins do not point below it or that the builder
// folds or has made already, a latch without a next state, a signal past
// the last node, and a WireCircuit.Property that names no property.
//
// The coordinator opens the conversation with Hello and the worker
// answers HelloAck; version skew fails the handshake. After that the
// coordinator sends Circuit, RaceRequest, Cancel and Ping frames; the worker answers with RaceResponse and Pong frames. Races
// are correlated by request ID, so a worker can run races for distinct
// queries concurrently (the k-induction base and step pools race in
// parallel) while each query's races stay strictly sequential.
//
// # Warm state over the wire
//
// A live (RaceLive) race ships neither its solvers nor the frames that
// built them, which are a pure function of the circuit, the property, the
// query and the depth. A link is sent a query's circuit (WireCircuit)
// before the query's first race on it — again after a reconnect, or when a
// new session's sequence takes the query over — and a race carries its
// depth, the assumptions, each attempt's hook-free solver options and the
// pool's growth hint (RaceRequest.Grow). The worker unrolls the circuit
// itself and loads a mirror through racer.Feed.CatchUp, as racer.Pool loads
// its own solvers, when the mirror is about to search: the mirror is made
// then, sized by the hint, the depth's frame encoded, once per race, and
// the guidance runs expanded over the one array the mirror keeps. No frame
// outlives its race, on either end, and a mirror is the solver the pool
// would have raced locally. A cold race builds its own unroll.Instance. A
// depth past unroll.Fits, a query whose circuit the connection does not
// hold or a second race on a busy query is answered with
// RaceResponse.Err, and the coordinator re-races the attempts locally.
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

	"repro/internal/circuit"
	"repro/internal/lits"
	"repro/internal/obs"
	"repro/internal/portfolio"
	"repro/internal/sat"
)

// ProtocolVersion is bumped on any wire-incompatible change; the
// handshake rejects mismatched peers.
const ProtocolVersion = 6

// DefaultMaxFrameBytes bounds one frame's payload (64 MiB — a circuit of
// millions of gates fits with room to spare).
// The bound is checked against the length prefix before any allocation.
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
	MsgPing
	MsgPong
	MsgCircuit
	msgKindEnd // sentinel: first invalid kind
)

// msgKindNames are the kinds' names in log lines.
var msgKindNames = [msgKindEnd]string{
	MsgHello: "hello", MsgHelloAck: "hello_ack", MsgRace: "race", MsgRaceResult: "race_result",
	MsgCancel: "cancel", MsgPing: "ping", MsgPong: "pong", MsgCircuit: "circuit",
}

// String implements fmt.Stringer for log lines.
func (k MsgKind) String() string {
	if k > 0 && k < msgKindEnd {
		return msgKindNames[k]
	}
	return fmt.Sprintf("msgkind(%d)", uint8(k))
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
	Circuit *WireCircuit
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

// WireCircuit is the circuit of one query, sent before the query's first
// race on a link and again whenever the query's circuit changes (a new
// session on the same executor). The worker unrolls it itself: Property is
// the index of the checked property among the circuit's, Step picks the
// k-induction step sequence over the BMC one. Circuit crosses node by node
// in NodeID order and is rebuilt with the same IDs, so the worker's frames
// are the coordinator's bit for bit.
type WireCircuit struct {
	Query    string
	Step     bool
	Property int
	Circuit  *circuit.Circuit
}

// RaceRequest submits one race: depth K of Query, whose circuit the link
// already carried. Live races (Live true) address the per-query mirror
// solvers and carry the depth's assumption list and Grow, the size the
// coordinator's pool hints its solvers for at this depth, which the mirrors
// are hinted for too; cold races build throwaway solvers over the depth-K
// instance.
type RaceRequest struct {
	ID    uint64
	Query string
	K     int
	Live  bool

	Assumps  []lits.Lit
	Attempts []WireAttempt
	Jobs     int

	Grow portfolio.Growth
}

// RaceResponse answers a RaceRequest. Race.Winner indexes the request's
// Attempts slice (the coordinator maps it back to its global attempt
// order). Err, when non-empty, reports a request the
// worker could not run (the coordinator treats it like a lost worker
// and re-races locally).
type RaceResponse struct {
	ID   uint64
	Race portfolio.RaceResult
	Err  string
}

// Cancel asks the worker to close the stop channel of the identified
// race. Unknown IDs are ignored (the race may have just finished).
type Cancel struct {
	ID uint64
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

// newWireStats registers a Conn's counters in reg under the label pairs; a
// nil registry gives nil handles.
func newWireStats(reg *obs.Registry, labels ...string) wireStats {
	n := func(base string) *obs.Counter { return reg.Counter(obs.Name(base, labels...)) }
	return wireStats{n(metricNetFramesSent), n(metricNetFramesRecv), n(metricNetBytesSent), n(metricNetBytesRecv)}
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

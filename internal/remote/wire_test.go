package remote

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cnf"
	"repro/internal/lits"
	"repro/internal/sat"
)

// encodeFrame renders one message exactly as Conn.Send renders a
// connection's first frame: 4-byte big-endian length prefix, frame number
// 0, message.
func encodeFrame(tb testing.TB, m *Message) []byte {
	tb.Helper()
	return appendFrame(nil, 0, m)
}

// readOne reads one frame from b with a fresh buffer.
func readOne(b []byte, maxFrame int) (uint64, *Message, int, error) {
	var buf []byte
	return readFrame(bytes.NewReader(b), maxFrame, &buf)
}

// fill sets every exported field reachable from v to a value that is not
// its zero — two elements for each slice, a new value behind each pointer —
// numbering the leaves so no two are alike. A field of a kind the codec has
// no primitive for fails the test, and so does an unexported field.
func fill(t testing.TB, v reflect.Value, n *int) {
	t.Helper()
	*n++
	i := *n
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int8:
		v.SetInt(int64(i%3) + 1) // statuses and tri-bools stay small
	case reflect.Int, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(i) * int64(1-2*(i%2)) * 1000) // both signs, multi-byte
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(i) << 20)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", i))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for j := 0; j < 2; j++ {
			fill(t, v.Index(j), n)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), n)
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(time.Time{}) {
			v.Set(reflect.ValueOf(time.Unix(0, 1_700_000_000_000_000_000+int64(i))))
			return
		}
		for f := 0; f < v.NumField(); f++ {
			if !v.Type().Field(f).IsExported() {
				t.Fatalf("%s.%s is unexported: the codec cannot carry it", v.Type(), v.Type().Field(f).Name)
			}
			fill(t, v.Field(f), n)
		}
	default:
		t.Fatalf("a wire field of kind %s (%s) has no codec primitive", v.Kind(), v.Type())
	}
}

// TestWireRoundTrip: every message kind, with every field of every payload
// set, survives Send/Recv over a pipe unchanged — a race request with a
// cold formula, frames and guidance runs, a response with a model, failed
// assumptions, outcomes and exported clauses, a clause payload. The filler
// sets each exported field non-zero, so a wire struct that gains a field
// the codec drops fails here.
func TestWireRoundTrip(t *testing.T) {
	var full Message
	n := 0
	fill(t, reflect.ValueOf(&full).Elem(), &n)
	if full.Race.Formula == nil || full.Result.Race.Result.Model == nil || full.Clauses.Clauses == nil {
		t.Fatal("the filler left a payload empty")
	}
	coord, worker := net.Pipe()
	defer coord.Close()
	defer worker.Close()
	a, b := NewConn(coord, 0), NewConn(worker, 0)
	for kind := MsgHello; kind < msgKindEnd; kind++ {
		want := full
		want.Kind = kind
		errc := make(chan error, 1)
		go func() { errc <- a.Send(&want, time.Second) }()
		got, err := b.Recv(time.Second)
		if err != nil {
			t.Fatalf("%v: Recv: %v", kind, err)
		}
		if err := <-errc; err != nil {
			t.Fatalf("%v: Send: %v", kind, err)
		}
		if !reflect.DeepEqual(got, &want) {
			t.Errorf("%v: round trip mutated the message:\ngot  %+v\nwant %+v", kind, got, &want)
		}
	}
}

// TestOptionsPerAttempt: sat.Options holds exactly what varies from one
// attempt to the next, and each of its fields either crosses the wire in
// WireOptions under its own name (the deadline as Unix nanoseconds) or is
// a process-local hook; WireOptions carries nothing else. A tuning field
// added back to sat.Options, or a wire mirror that drifts from it, fails
// here.
func TestOptionsPerAttempt(t *testing.T) {
	perAttempt := []string{"Guidance", "SwitchAfterDecisions", "MaxConflicts", "Deadline", "Stop", "Recorder", "Metrics"}
	hooks := map[string]bool{"Stop": true, "Recorder": true, "Metrics": true}
	onWire := map[string]string{"Deadline": "DeadlineUnixNano"}

	exported := func(v any) []string {
		var names []string
		for typ, i := reflect.TypeOf(v), 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				names = append(names, f.Name)
			}
		}
		return names
	}
	if got := exported(sat.Options{}); !slices.Equal(got, perAttempt) {
		t.Errorf("sat.Options has fields %v, want exactly the per-attempt %v", got, perAttempt)
	}
	var want []string
	for _, name := range perAttempt {
		if hooks[name] {
			continue
		}
		if w, ok := onWire[name]; ok {
			name = w
		}
		want = append(want, name)
	}
	if got := exported(WireOptions{}); !slices.Equal(got, want) {
		t.Errorf("WireOptions has fields %v, want sat.Options' %v without the hooks", got, want)
	}
}

// TestReadMessageRejects: malformed frames fail cleanly — bounded
// allocation for header bombs, distinct errors for empty and oversized
// frames, decode errors for garbage, lists that claim more than the frame
// holds and clause lists whose literal total disagrees with their clauses
// — and never panic; guidance runs that do not cover the depth's variables
// fail the race, not the worker.
func TestReadMessageRejects(t *testing.T) {
	valid := encodeFrame(t, &Message{Kind: MsgPing, Seq: 3})

	t.Run("oversized", func(t *testing.T) {
		var hdr [headerLen]byte
		binary.BigEndian.PutUint32(hdr[:], 1<<31) // 2 GiB claim, no payload behind it
		_, _, _, err := readOne(hdr[:], 1<<20)
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Errorf("header bomb: got %v, want ErrFrameTooLarge", err)
		}
	})
	t.Run("empty", func(t *testing.T) {
		var hdr [headerLen]byte
		_, _, _, err := readOne(hdr[:], 1<<20)
		if !errors.Is(err, ErrEmptyFrame) {
			t.Errorf("empty frame: got %v, want ErrEmptyFrame", err)
		}
	})
	t.Run("truncated-header", func(t *testing.T) {
		if _, _, _, err := readOne(valid[:2], 1<<20); err == nil {
			t.Error("truncated header accepted")
		}
	})
	t.Run("truncated-payload", func(t *testing.T) {
		if _, _, _, err := readOne(valid[:len(valid)-1], 1<<20); err == nil {
			t.Error("truncated payload accepted")
		}
	})
	t.Run("garbage-payload", func(t *testing.T) {
		junk := append([]byte{}, valid...)
		for i := headerLen; i < len(junk); i++ {
			junk[i] ^= 0xA5
		}
		if _, _, _, err := readOne(junk, 1<<20); err == nil {
			t.Error("corrupt payload accepted")
		}
	})
	t.Run("trailing-bytes", func(t *testing.T) {
		long := append(append([]byte{}, valid...), 0)
		binary.BigEndian.PutUint32(long, uint32(len(long)-headerLen))
		if _, _, _, err := readOne(long, 1<<20); err == nil {
			t.Error("a frame with a byte after its message accepted")
		}
	})
	t.Run("unknown-kind", func(t *testing.T) {
		bad := encodeFrame(t, &Message{Kind: msgKindEnd + 7})
		if _, _, _, err := readOne(bad, 1<<20); err == nil {
			t.Error("out-of-range message kind accepted")
		}
	})
	t.Run("runs-past-frame", func(t *testing.T) {
		// One attempt named so its options are easy to find, whose run list
		// claims 2^40 runs where three bytes of runs stood.
		b := encodeFrame(t, &Message{Kind: MsgRace, Race: &RaceRequest{
			ID: 1, Query: "bmc", Live: true,
			Attempts: []WireAttempt{{Name: "RUNS", Opts: WireOptions{Guidance: GuidanceRuns{{N: 1}}}}},
		}})
		at := bytes.Index(b, []byte("RUNS")) + len("RUNS") // the runs are the options' first field
		if !bytes.Equal(b[at:at+3], []byte{1, 1, 0}) {
			t.Fatalf("run list not where expected: % x", b[at:at+3])
		}
		bomb := append(binary.AppendUvarint(append([]byte{}, b[:at]...), 1<<40), b[at+3:]...)
		binary.BigEndian.PutUint32(bomb, uint32(len(bomb)-headerLen))
		_, _, _, err := readOne(bomb, 1<<20)
		if err == nil || !strings.Contains(err.Error(), "bytes left") {
			t.Errorf("a run list of 2^40 in a %d-byte frame: got %v, want a count past the bytes left", len(bomb), err)
		}
	})
	t.Run("clause-total", func(t *testing.T) {
		// One clause of two literals that take two bytes each: the frame
		// ends in count 1, total 2, length 2 and the four literal bytes.
		b := encodeFrame(t, &Message{Kind: MsgClauses, Clauses: &ClausePayload{Query: "bmc", From: "vsids",
			Clauses: []cnf.Clause{{1000, -1000}}}})
		total := len(b) - 6
		if b[total] != 2 || b[total+1] != 2 {
			t.Fatalf("clause list not where expected: % x", b[total-1:])
		}
		for _, claim := range []byte{1, 3} {
			bad := append([]byte{}, b...)
			bad[total] = claim
			if _, m, _, err := readOne(bad, 1<<20); err == nil {
				t.Errorf("a clause list of 2 literals claiming %d accepted: %v", claim, m.Clauses.Clauses)
			}
		}
		if _, m, _, err := readOne(b, 1<<20); err != nil || !reflect.DeepEqual(m.Clauses.Clauses, []cnf.Clause{{1000, -1000}}) {
			t.Errorf("the unaltered clause list: %v, %v", m, err)
		}
	})
	t.Run("runs-not-covering", func(t *testing.T) {
		w := NewWorker(WorkerOptions{})
		x1, x2 := lits.PosLit(1), lits.PosLit(2)
		frame := WireFrame{K: 0, NumVars: 5, Clauses: []cnf.Clause{{x1, x2}}}
		for _, runs := range []GuidanceRuns{{{N: 5}}, {{N: 6}, {N: 1}}, {{N: 1 << 40}}, {{N: math.MaxUint64}, {N: 7}}} {
			live := &RaceRequest{ID: 1, Query: "bmc", Live: true, Frames: []WireFrame{frame},
				Assumps: []lits.Lit{x1}, Attempts: []WireAttempt{{Name: "static", Opts: WireOptions{Guidance: runs}}}}
			cold := &RaceRequest{ID: 2, Query: "bmc", NumVars: 5, Formula: frame.Clauses, Attempts: live.Attempts}
			for _, req := range []*RaceRequest{live, cold} {
				if resp := w.runRace(newConnSession(), req, nil); resp.Err == "" {
					t.Errorf("live %v: guidance runs %v for 5 variables raced", req.Live, runs)
				}
			}
		}
		ok := &RaceRequest{ID: 3, Query: "bmc", Live: true, Frames: []WireFrame{frame}, Jobs: 1,
			Assumps: []lits.Lit{x1}, Attempts: []WireAttempt{{Name: "static", Opts: WireOptions{Guidance: GuidanceRuns{{N: 6}}}}}}
		if resp := w.runRace(newConnSession(), &RaceRequest{ID: 4, Query: "bmc", Live: true, Jobs: 1, Attempts: ok.Attempts}, nil); resp.Err == "" {
			t.Error("a live race on a query without frames raced")
		}
		if resp := w.runRace(newConnSession(), ok, nil); resp.Err != "" || !resp.Race.Result.Status.Decided() {
			t.Errorf("runs covering the 5 variables: %q, %v", resp.Err, resp.Race.Result.Status)
		}
	})
	t.Run("valid", func(t *testing.T) {
		no, m, n, err := readOne(valid, 1<<20)
		if err != nil || no != 0 || m.Kind != MsgPing || m.Seq != 3 || n != len(valid) {
			t.Errorf("valid frame: no=%d m=%+v n=%d err=%v", no, m, n, err)
		}
	})
}

// TestRecvRejectsOutOfOrder: a connection's frames are numbered, and Recv
// takes only the next one — a duplicate or a skipped frame fails.
func TestRecvRejectsOutOfOrder(t *testing.T) {
	ping := func(no uint64) []byte { return appendFrame(nil, no, &Message{Kind: MsgPing, Seq: no}) }
	for _, tc := range []struct {
		name string
		nos  []uint64
		ok   int // frames accepted before the failure
	}{
		{"in-order", []uint64{0, 1, 2}, 3},
		{"duplicate", []uint64{0, 1, 1}, 2},
		{"swapped", []uint64{0, 2, 1}, 1},
		{"not-from-zero", []uint64{1}, 0},
	} {
		coord, worker := net.Pipe()
		go func() {
			for _, no := range tc.nos {
				if _, err := coord.Write(ping(no)); err != nil {
					return
				}
			}
		}()
		c := NewConn(worker, 0)
		var err error
		got := 0
		for ; got < len(tc.nos); got++ {
			if _, err = c.Recv(time.Second); err != nil {
				break
			}
		}
		coord.Close()
		worker.Close()
		if got != tc.ok || (got < len(tc.nos)) != errors.Is(err, ErrFrameOrder) {
			t.Errorf("%s: accepted %d frames, then %v; want %d, then ErrFrameOrder if any is left", tc.name, got, err, tc.ok)
		}
	}
}

// TestSendEnforcesBound: a message that encodes past the connection's
// frame bound is refused before it touches the wire.
func TestSendEnforcesBound(t *testing.T) {
	coord, worker := net.Pipe()
	defer coord.Close()
	defer worker.Close()
	c := NewConn(coord, 64)
	big := &Message{Kind: MsgClauses, Clauses: &ClausePayload{
		Query: "bmc", Clauses: []cnf.Clause{make(cnf.Clause, 1024)},
	}}
	if err := c.Send(big, time.Second); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized send: got %v, want ErrFrameTooLarge", err)
	}
}

// FuzzWireDecode: the frame decoder must never panic and must bound its
// allocations by the configured frame limit no matter what bytes arrive
// — this is the surface a malicious or corrupted peer controls. A frame it
// accepts, re-encoded, must decode to the same message (compared by
// encoding).
func FuzzWireDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Add(encodeFrame(f, &Message{Kind: MsgPing, Seq: 99}))
	f.Add(encodeFrame(f, &Message{Kind: MsgHello, Hello: &Hello{Version: 1, Name: "fuzz"}}))
	f.Add(encodeFrame(f, &Message{Kind: MsgCancel, Cancel: &Cancel{ID: 12}}))
	f.Add(encodeFrame(f, &Message{Kind: MsgRace, Race: &RaceRequest{
		ID: 1, Query: "bmc", Live: true,
		Frames:   []WireFrame{{K: 0, NumVars: 2, Clauses: []cnf.Clause{{1, 2}}}},
		Attempts: []WireAttempt{{Name: "vsids"}, {Name: "static", Opts: WireOptions{Guidance: GuidanceRuns{{N: 2}, {N: 1, Bits: math.Float64bits(1.5)}}}}},
	}}))
	f.Add(encodeFrame(f, &Message{Kind: MsgClauses, Clauses: &ClausePayload{
		Query: "step", K: 3, From: "vsids", Clauses: []cnf.Clause{{-1, 2, 3}},
	}}))
	var full Message
	n := 0
	fill(f, reflect.ValueOf(&full).Elem(), &n)
	full.Kind = MsgRaceResult
	f.Add(encodeFrame(f, &full))

	const maxFrame = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte) {
		no, m, n, err := readOne(data, maxFrame)
		if err != nil {
			return
		}
		if m == nil {
			t.Fatal("nil message without error")
		}
		if m.Kind == 0 || m.Kind >= msgKindEnd {
			t.Fatalf("decoder accepted invalid kind %d", m.Kind)
		}
		if n > len(data) {
			t.Fatalf("frame size %d exceeds input %d", n, len(data))
		}
		// A frame the decoder accepts must also survive re-reading from a
		// stream that continues past it (self-contained framing).
		rest := append(append([]byte{}, data[:n]...), data...)
		var buf []byte
		if _, _, _, err := readFrame(io.LimitReader(bytes.NewReader(rest), int64(n)), maxFrame, &buf); err != nil {
			t.Fatalf("accepted frame failed to re-decode: %v", err)
		}
		re := appendFrame(nil, no, m)
		no2, m2, _, err := readOne(re, math.MaxInt32)
		if err != nil {
			t.Fatalf("accepted message failed to decode once re-encoded: %v", err)
		}
		if no2 != no || !bytes.Equal(appendMessage(nil, m2), appendMessage(nil, m)) {
			t.Fatalf("re-encoded frame %d decoded as frame %d, %+v; want %+v", no, no2, m2, m)
		}
	})
}

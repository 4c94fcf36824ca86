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

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/lits"
	"repro/internal/sat"
	"repro/internal/unroll"
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

// fillCircuit is the circuit fill puts behind a *circuit.Circuit: every
// kind of node, a latch that starts true, a next state that points forward
// and two properties, so that fill's Property can name the second. Its
// nodes are unnamed, as a circuit arrives: names do not cross the wire.
func fillCircuit() *circuit.Circuit {
	c := circuit.New("")
	a, b := c.Input(""), c.Input("")
	l0, l1 := c.Latch("", true), c.Latch("", false)
	g := c.And(a, l0.Not())
	c.SetNext(l0, c.Xor(g, l1))
	c.SetNext(l1, c.And(b, g).Not())
	c.AddProperty("p0", c.And(l0, l1))
	c.AddProperty("p1", g)
	return c
}

// fill sets every exported field reachable from v to a value that is not
// its zero — two elements for each slice, a new value behind each pointer —
// numbering the leaves so no two are alike. A field of a kind the codec has
// no primitive for fails the test, and so does an unexported field. A
// circuit, which the codec carries whole, is fillCircuit's.
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
		if v.Type() == reflect.TypeOf(circuit.Circuit{}) {
			v.Set(reflect.ValueOf(fillCircuit()).Elem())
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

// fullMessage is a message with every payload and every field of each set
// by fill, its circuit's property index in range.
func fullMessage(tb testing.TB) Message {
	var full Message
	n := 0
	fill(tb, reflect.ValueOf(&full).Elem(), &n)
	full.Circuit.Property = 1
	return full
}

// TestWireRoundTrip: every message kind, with every field of every payload
// set, survives Send/Recv over a pipe unchanged — a race request with
// guidance runs, a response with a model, failed assumptions and
// outcomes, a circuit. The filler sets each
// exported field non-zero, so a wire struct that gains a field the codec
// drops fails here.
func TestWireRoundTrip(t *testing.T) {
	full := fullMessage(t)
	if full.Race.Assumps == nil || full.Result.Race.Result.Model == nil || full.Circuit.Circuit == nil {
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

// TestCircuitRoundTrip: every suite circuit crosses the wire node for node:
// each NodeID keeps its kind, fanins, latch initial value and next state,
// the properties survive, and the worker's unrolling of the received
// circuit — both queries' frames, depths 0 to 5 — is the sender's bit for
// bit.
func TestCircuitRoundTrip(t *testing.T) {
	for _, m := range bench.Suite() {
		c := m.Build()
		for prop := range c.Properties() {
			for _, step := range []bool{false, true} {
				sent := &WireCircuit{Query: "q", Step: step, Property: prop, Circuit: c}
				_, msg, _, err := readOne(encodeFrame(t, &Message{Kind: MsgCircuit, Circuit: sent}), DefaultMaxFrameBytes)
				if err != nil {
					t.Fatalf("%s: %v", m.Name, err)
				}
				got := msg.Circuit
				if got.Query != sent.Query || got.Step != step || got.Property != prop {
					t.Fatalf("%s: header %+v, want %+v", m.Name, got, sent)
				}
				sameCircuit(t, m.Name, got.Circuit, c)
				sameFrames(t, m.Name, got.Circuit, c, prop)
			}
		}
	}
}

// sameCircuit fails unless got has want's nodes, node by node, and its
// properties.
func sameCircuit(t *testing.T, name string, got, want *circuit.Circuit) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() {
		t.Fatalf("%s: %d nodes, want %d", name, got.NumNodes(), want.NumNodes())
	}
	for id := circuit.NodeID(1); int(id) < want.NumNodes(); id++ {
		kind := want.Kind(id)
		if got.Kind(id) != kind {
			t.Fatalf("%s: n%d is a %v, want a %v", name, id, got.Kind(id), kind)
		}
		switch kind {
		case circuit.KindAnd:
			ga, gb := got.Fanins(id)
			wa, wb := want.Fanins(id)
			if ga != wa || gb != wb {
				t.Fatalf("%s: n%d = %v ∧ %v, want %v ∧ %v", name, id, ga, gb, wa, wb)
			}
		case circuit.KindLatch:
			if got.LatchInit(id) != want.LatchInit(id) || got.LatchNext(id) != want.LatchNext(id) {
				t.Fatalf("%s: latch n%d starts %v, next %v; want %v, %v", name, id,
					got.LatchInit(id), got.LatchNext(id), want.LatchInit(id), want.LatchNext(id))
			}
		}
	}
	if !slices.Equal(got.Inputs(), want.Inputs()) || !slices.Equal(got.Latches(), want.Latches()) ||
		!slices.Equal(got.Properties(), want.Properties()) {
		t.Fatalf("%s: inputs, latches or properties differ", name)
	}
}

// sameFrames fails unless both circuits unroll, for property prop, to the
// same delta and step frames at depths 0..5.
func sameFrames(t *testing.T, name string, got, want *circuit.Circuit, prop int) {
	t.Helper()
	gu, err := unroll.New(got, prop)
	if err != nil {
		t.Fatalf("%s: the received circuit does not unroll: %v", name, err)
	}
	wu, err := unroll.New(want, prop)
	if err != nil {
		t.Fatal(err)
	}
	gd, wd, gs, ws := gu.Delta(), wu.Delta(), gu.StepDelta(), wu.StepDelta()
	for k := 0; k <= 5; k++ {
		if !reflect.DeepEqual(gd.Frame(k), wd.Frame(k)) {
			t.Fatalf("%s/%d: delta frame %d differs", name, prop, k)
		}
		if !reflect.DeepEqual(gs.Frame(k), ws.Frame(k)) {
			t.Fatalf("%s/%d: step frame %d differs", name, prop, k)
		}
	}
}

// rawNode is one node as appendCircuit writes it; rawCircuit writes nodes,
// next states and properties as given, so a test can make them disagree.
type rawNode struct {
	kind circuit.NodeKind
	a, b uint64 // an AND gate's fanin signals
	init bool   // a latch's
}

// rawCircuit renders a circuit message frame whose circuit claims count
// nodes and holds the given ones after the constant, then the next states
// and the bad signals of unnamed properties, for property index prop.
func rawCircuit(prop int, count uint64, nodes []rawNode, nexts, bads []uint64) []byte {
	p := []byte{0, byte(MsgCircuit), 0, hasCircuit} // frame number, kind, seq, payloads
	p = appendString(p, "bmc")
	p = appendBool(p, false)
	p = binary.AppendVarint(p, int64(prop))
	p = binary.AppendUvarint(p, count)
	for _, nd := range nodes {
		p = append(p, byte(nd.kind))
		switch nd.kind {
		case circuit.KindInput:
		case circuit.KindLatch:
			p = appendBool(p, nd.init)
		default:
			p = binary.AppendUvarint(binary.AppendUvarint(p, nd.a), nd.b)
		}
	}
	p = binary.AppendUvarint(p, uint64(len(nexts)))
	for _, n := range nexts {
		p = binary.AppendUvarint(p, n)
	}
	p = binary.AppendUvarint(p, uint64(len(bads)))
	for _, b := range bads {
		p = binary.AppendUvarint(appendString(p, ""), b)
	}
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(p))), p...)
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
// frames, decode errors for garbage and lists that claim more than the
// frame holds — and never panic; guidance runs that do not cover the
// depth's variables fail the race, not the worker.
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
	t.Run("runs-not-covering", func(t *testing.T) {
		// A two-node circuit: the delta numbering gives depth 0 three
		// variables (the input, the latch, the activation), so four scores;
		// the scratch numbering two variables, so three.
		c := circuit.New("tiny")
		x := c.Input("x")
		l := c.Latch("l", false)
		c.SetNext(l, x)
		c.AddProperty("bad", l)
		w := NewWorker(WorkerOptions{})
		sess := newConnSession()
		if err := sess.install(&WireCircuit{Query: "bmc", Circuit: c}); err != nil {
			t.Fatal(err)
		}
		live := func(runs GuidanceRuns) *RaceRequest {
			return &RaceRequest{ID: 1, Query: "bmc", Live: true, Jobs: 1,
				Assumps: []lits.Lit{sess.queries["bmc"].src.Assumption(0)}, Attempts: []WireAttempt{{Name: "static", Opts: WireOptions{Guidance: runs}}}}
		}
		cold := func(runs GuidanceRuns) *RaceRequest {
			return &RaceRequest{ID: 2, Query: "bmc", Jobs: 1, Attempts: []WireAttempt{{Name: "static", Opts: WireOptions{Guidance: runs}}}}
		}
		for _, runs := range []GuidanceRuns{{{N: 5}}, {{N: 2}}, {{N: 3}, {N: 2}}, {{N: 1 << 40}}, {{N: math.MaxUint64}, {N: 7}}} {
			for _, req := range []*RaceRequest{live(runs), cold(runs)} {
				if resp := w.runRace(sess, req, nil); resp.Err == "" {
					t.Errorf("live %v: guidance runs %v for depth 0 raced", req.Live, runs)
				}
			}
		}
		if resp := w.runRace(newConnSession(), live(GuidanceRuns{{N: 4}}), nil); resp.Err == "" {
			t.Error("a live race on a query without its circuit raced")
		}
		for _, req := range []*RaceRequest{live(GuidanceRuns{{N: 4}}), cold(GuidanceRuns{{N: 3}})} {
			if resp := w.runRace(sess, req, nil); resp.Err != "" || !resp.Race.Result.Status.Decided() {
				t.Errorf("live %v: runs covering depth 0's variables: %q, %v", req.Live, resp.Err, resp.Race.Result.Status)
			}
		}
	})
	t.Run("circuit", func(t *testing.T) {
		// n1 an input, n2 a latch, n3 = n1 ∧ ¬n2 the latch's next state and
		// the bad signal.
		in, latch := rawNode{kind: circuit.KindInput}, rawNode{kind: circuit.KindLatch, init: true}
		gate := func(a, b uint64) rawNode { return rawNode{kind: circuit.KindAnd, a: a, b: b} }
		if _, m, _, err := readOne(rawCircuit(0, 4, []rawNode{in, latch, gate(2, 5)}, []uint64{6}, []uint64{6}), 1<<20); err != nil {
			t.Fatalf("the valid circuit: %v", err)
		} else if got := m.Circuit.Circuit; got.NumNodes() != 4 || got.LatchNext(2) != 6 || !got.LatchInit(2).IsTrue() {
			t.Fatalf("the valid circuit decoded as %s", got.Stats())
		}
		for _, tc := range []struct {
			name  string
			frame []byte
		}{
			{"node-count", rawCircuit(0, 1<<40, []rawNode{in, latch, gate(2, 5)}, []uint64{6}, []uint64{6})},
			{"forward-fanin", rawCircuit(0, 5, []rawNode{in, latch, gate(2, 8), in}, []uint64{6}, []uint64{6})},
			{"self-fanin", rawCircuit(0, 4, []rawNode{in, latch, gate(2, 6)}, []uint64{6}, []uint64{6})},
			{"folded-gate", rawCircuit(0, 4, []rawNode{in, latch, gate(2, 2)}, []uint64{6}, []uint64{6})},
			{"repeated-gate", rawCircuit(0, 5, []rawNode{in, latch, gate(2, 5), gate(2, 5)}, []uint64{6}, []uint64{6})},
			{"unknown-kind", rawCircuit(0, 4, []rawNode{in, latch, {kind: 9}}, []uint64{6}, []uint64{6})},
			{"unset-next", rawCircuit(0, 4, []rawNode{in, latch, gate(2, 5)}, nil, []uint64{6})},
			{"next-past-nodes", rawCircuit(0, 4, []rawNode{in, latch, gate(2, 5)}, []uint64{8}, []uint64{6})},
			{"bad-past-nodes", rawCircuit(0, 4, []rawNode{in, latch, gate(2, 5)}, []uint64{6}, []uint64{9})},
			{"property-range", rawCircuit(1, 4, []rawNode{in, latch, gate(2, 5)}, []uint64{6}, []uint64{6})},
			{"negative-property", rawCircuit(-1, 4, []rawNode{in, latch, gate(2, 5)}, []uint64{6}, []uint64{6})},
		} {
			if _, m, _, err := readOne(tc.frame, 1<<20); err == nil {
				t.Errorf("%s: accepted as %s", tc.name, m.Circuit.Circuit.Stats())
			}
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
	big := &Message{Kind: MsgHello, Hello: &Hello{Version: ProtocolVersion, Name: strings.Repeat("w", 1024)}}
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
		ID: 1, Query: "bmc", K: 3, Live: true, Assumps: []lits.Lit{7},
		Attempts: []WireAttempt{{Name: "vsids"}, {Name: "static", Opts: WireOptions{Guidance: GuidanceRuns{{N: 2}, {N: 1, Bits: math.Float64bits(1.5)}}}}},
	}}))
	for _, c := range []*circuit.Circuit{fillCircuit(), bench.Counter(3, 5, 1, 2), bench.TrafficLight(true, 0, 0)} {
		f.Add(encodeFrame(f, &Message{Kind: MsgCircuit, Circuit: &WireCircuit{Query: "step", Step: true, Circuit: c}}))
	}
	f.Add(encodeFrame(f, &Message{Kind: MsgRaceResult, Result: &RaceResponse{ID: 7, Err: "remote: query \"bmc\" already racing"}}))
	full := fullMessage(f)
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

// TestHandshakeRefusesOtherVersion: a peer that announces a protocol
// version other than ProtocolVersion — here the one before it — gets no
// session from either end. A worker answers a coordinator's Hello of that
// version with no HelloAck and closes the connection; a coordinator whose
// worker acknowledges with that version fails New and keeps no link.
func TestHandshakeRefusesOtherVersion(t *testing.T) {
	const old = ProtocolVersion - 1

	t.Run("worker", func(t *testing.T) {
		coord, worker := net.Pipe()
		defer coord.Close()
		served := make(chan struct{})
		go func() {
			defer close(served)
			NewWorker(WorkerOptions{IdleTimeout: 2 * time.Second}).ServeConn(worker)
		}()
		c := NewConn(coord, 0)
		if err := c.Send(&Message{Kind: MsgHello, Hello: &Hello{Version: old, Name: "old"}}, time.Second); err != nil {
			t.Fatalf("hello: %v", err)
		}
		if m, err := c.Recv(time.Second); err == nil {
			t.Errorf("a worker answered a version-%d hello with %v", old, m.Kind)
		}
		select {
		case <-served:
		case <-time.After(5 * time.Second):
			t.Fatal("the worker kept a version-mismatched connection open")
		}
	})

	t.Run("coordinator", func(t *testing.T) {
		acked := make(chan error, 1)
		opts := fastOpts()
		opts.Dial = func(string) (net.Conn, error) {
			coord, worker := net.Pipe()
			go func() {
				defer worker.Close()
				w := NewConn(worker, 0)
				m, err := w.Recv(time.Second)
				if err == nil && (m.Kind != MsgHello || m.Hello == nil || m.Hello.Version != ProtocolVersion) {
					err = fmt.Errorf("coordinator sent %v, version %v", m.Kind, m.Hello)
				}
				if err == nil {
					err = w.Send(&Message{Kind: MsgHelloAck, Hello: &Hello{Version: old, Name: "old"}}, time.Second)
				}
				acked <- err
			}()
			return coord, nil
		}
		e, err := New([]string{"old-worker"}, opts)
		if err == nil {
			e.Close()
			t.Fatalf("a coordinator accepted a worker that acknowledged version %d", old)
		}
		if !strings.Contains(err.Error(), "handshake") {
			t.Errorf("New failed with %v, want a handshake error", err)
		}
		if err := <-acked; err != nil {
			t.Fatalf("the fake worker: %v", err)
		}
	})
}

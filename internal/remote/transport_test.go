package remote

import (
	"errors"
	"math/rand/v2"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/racer"
)

// fault is what a faultConn does to one of its writes — one frame, as
// Conn.Send writes each.
type fault int

const (
	// faultNone only splits and delays, as every write is.
	faultNone fault = iota
	// faultCut closes the connection in the middle of the write, at a random
	// byte boundary: the piece before the cut goes out, the rest of the
	// frame never does.
	faultCut
	// faultDuplicate sends the write twice.
	faultDuplicate
	// faultSwap holds the write back and sends it after the next one.
	faultSwap
)

// faultConn is a hostile transport under one end of a loopback
// connection: every write is split at random byte boundaries and each
// piece is delayed by up to maxDelay before it goes out, so the reader at
// the other end sees a frame arrive in pieces and late. Its at-th write
// also suffers the fault: a cut, a duplicate, or a swap with the write
// after it. Frames carry their number on the connection, so the reader
// rejects a duplicated or swapped one and the link ends, as it does on a
// cut, instead of a race being applied twice or out of order.
type faultConn struct {
	net.Conn
	maxDelay time.Duration
	fault    fault
	at       int

	mu     sync.Mutex // serialises writes: a write's pieces go out together
	rng    *rand.Rand
	writes int
	held   []byte // a swapped write, waiting for the next one
}

var errCut = errors.New("faultConn: connection cut")

func (c *faultConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writes++
	if c.writes != c.at {
		n, err := c.send(b, len(b))
		if err == nil && c.held != nil {
			_, err = c.send(c.held, len(c.held))
			c.held = nil
		}
		return n, err
	}
	switch c.fault {
	case faultCut:
		if len(b) > 1 {
			n, err := c.send(b, 1+c.rng.IntN(len(b)-1))
			if err != nil {
				return n, err
			}
			c.Conn.Close()
			return n, errCut
		}
	case faultDuplicate:
		if _, err := c.send(b, len(b)); err != nil {
			return 0, err
		}
	case faultSwap:
		c.held = slices.Clone(b)
		return len(b), nil
	}
	return c.send(b, len(b))
}

// send writes b[:end] in random pieces, each after a random delay.
func (c *faultConn) send(b []byte, end int) (int, error) {
	n := 0
	for n < end {
		piece := 1 + c.rng.IntN(end-n)
		time.Sleep(time.Duration(c.rng.Int64N(int64(c.maxDelay) + 1)))
		m, err := c.Conn.Write(b[n : n+piece])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// faultyTransport returns a loopback wrap that puts a faultConn under
// both ends of every connection, each seeded from seed and the
// connection's place in dial order; the coordinator's end suffers f in
// its at-th write (faultNone: never).
func faultyTransport(seed uint64, maxDelay time.Duration, f fault, at int) func(coord, worker net.Conn) (net.Conn, net.Conn) {
	var dials atomic.Uint64
	return func(coord, worker net.Conn) (net.Conn, net.Conn) {
		i := dials.Add(1)
		wrap := func(nc net.Conn, side uint64, f fault) net.Conn {
			return &faultConn{Conn: nc, maxDelay: maxDelay, fault: f, at: at, rng: rand.New(rand.NewPCG(seed, 2*i+side))}
		}
		return wrap(coord, 0, f), wrap(worker, 1, faultNone)
	}
}

// newFaultyLoopbackExecutor is newLoopbackExecutor over faultyTransport.
func newFaultyLoopbackExecutor(t *testing.T, n int, opts Options, seed uint64, f fault, at int) (*Executor, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	opts.Metrics = reg
	e, err := newLoopback(n, opts, NewWorker(WorkerOptions{}), faultyTransport(seed, 200*time.Microsecond, f, at))
	if err != nil {
		t.Fatalf("newLoopback: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	return e, reg
}

// TestFaultConnSplitsAndCuts: the transport itself — a write arrives
// whole but in pieces, a cut write delivers a proper prefix of itself, a
// duplicated write arrives twice, and a swapped one after its successor.
func TestFaultConnSplitsAndCuts(t *testing.T) {
	msg := make([]byte, 4096)
	for i := range msg {
		msg[i] = byte(i)
	}
	next := []byte("next")
	for _, f := range []fault{faultNone, faultCut, faultDuplicate, faultSwap} {
		a, b := net.Pipe()
		fc := &faultConn{Conn: a, maxDelay: time.Microsecond, fault: f, at: 1, rng: rand.New(rand.NewPCG(1, 2))}
		errc := make(chan error, 1)
		go func() {
			_, err := fc.Write(msg)
			if err == nil {
				_, err = fc.Write(next)
			}
			errc <- err
			a.Close()
		}()
		var got []byte
		reads := 0
		buf := make([]byte, len(msg))
		for {
			n, err := b.Read(buf)
			got = append(got, buf[:n]...)
			reads++
			if err != nil {
				break
			}
		}
		werr := <-errc
		b.Close()
		var want []byte
		switch f {
		case faultNone:
			want = slices.Concat(msg, next)
		case faultDuplicate:
			want = slices.Concat(msg, msg, next)
		case faultSwap:
			want = slices.Concat(next, msg)
		}
		switch {
		case f == faultCut && (!errors.Is(werr, errCut) || len(got) == 0 || len(got) >= len(msg) || string(got) != string(msg[:len(got)])):
			t.Errorf("cut: %d of %d bytes arrived (%v), want a proper prefix", len(got), len(msg), werr)
		case f != faultCut && (werr != nil || string(got) != string(want) || reads < 4):
			t.Errorf("fault %d: %d bytes in %d reads (%v), want %d in pieces", f, len(got), reads, werr, len(want))
		}
	}
}

// faultShapes are the engine shapes the transport fault tests run: the
// cold portfolio and the warm pool with its clause bus.
func faultShapes() []struct {
	name string
	opts []engine.Option
} {
	return []struct {
		name string
		opts []engine.Option
	}{
		{"portfolio", []engine.Option{engine.WithPortfolio(nil, 0)}},
		{"warm", []engine.Option{engine.WithPortfolio(nil, 0), engine.WithIncremental(),
			engine.WithExchange(racer.ExchangeOptions{Enabled: true})}},
	}
}

// TestLoopbackCutMidFrame: a coordinator whose connection is cut in the
// middle of a frame — the worker gets part of a race request, the
// coordinator a failed send — loses the worker, re-races the stranded
// attempts locally and reaches the all-local verdict. Reconnects are off,
// so every later depth runs with no worker at all.
func TestLoopbackCutMidFrame(t *testing.T) {
	m := equivalenceModel(t, "cnt_w4_t9")
	for _, shape := range faultShapes() {
		base := append([]engine.Option{engine.WithBudgets(9, 0)}, shape.opts...)
		ref := checkWith(t, m, base...)
		// The handshake and two frames go out whole; the fourth frame —
		// a race request unless a ping slipped in — is cut.
		e, reg := newFaultyLoopbackExecutor(t, 1, fastOpts(), 7, faultCut, 4)
		res := checkWith(t, m, append(base, engine.WithExecutor(e))...)
		e.Close()
		if res.Verdict != ref.Verdict || res.K != ref.K {
			t.Errorf("%s: cut connection (%v@%d), all-local (%v@%d)", shape.name, res.Verdict, res.K, ref.Verdict, ref.K)
		}
		snap := reg.Snapshot()
		races, fallbacks := snap.Counters[metricRemoteRaces], snap.Counters[metricRemoteFallbacks]
		t.Logf("%s: %d remote races, %d fallbacks", shape.name, races, fallbacks)
		if fallbacks == 0 || fallbacks >= races {
			t.Errorf("%s: %d remote races, %d fallbacks; want races decided remotely before the cut and the stranded ones re-raced locally",
				shape.name, races, fallbacks)
		}
	}
}

// TestLoopbackDuplicateAndReorder: a coordinator whose connection
// delivers one frame twice, or two frames swapped, loses the worker — the
// worker sees a frame number that is not the next one and hangs up rather
// than run a race twice or out of order — re-races the stranded attempts
// locally and reaches the all-local verdict and depth. Reconnects are off,
// so every later depth runs locally.
func TestLoopbackDuplicateAndReorder(t *testing.T) {
	m := equivalenceModel(t, "cnt_w4_t9")
	for _, shape := range faultShapes() {
		base := append([]engine.Option{engine.WithBudgets(9, 0)}, shape.opts...)
		ref := checkWith(t, m, base...)
		for _, tc := range []struct {
			name string
			f    fault
		}{{"duplicate", faultDuplicate}, {"swap", faultSwap}} {
			for seed := uint64(1); seed <= 3; seed++ {
				// After the handshake: one of the first race requests, or a
				// ping that slipped in between them.
				at := 2 + int(seed)
				e, reg := newFaultyLoopbackExecutor(t, 1, fastOpts(), seed, tc.f, at)
				res := checkWith(t, m, append(base, engine.WithExecutor(e))...)
				e.Close()
				if res.Verdict != ref.Verdict || res.K != ref.K {
					t.Errorf("%s, %s at write %d: (%v@%d), all-local (%v@%d)", shape.name, tc.name, at, res.Verdict, res.K, ref.Verdict, ref.K)
				}
				snap := reg.Snapshot()
				races, fallbacks := snap.Counters[metricRemoteRaces], snap.Counters[metricRemoteFallbacks]
				if fallbacks == 0 {
					t.Errorf("%s, %s at write %d: %d remote races and no fallback; want the link lost and its races re-raced locally",
						shape.name, tc.name, at, races)
				}
			}
		}
	}
}

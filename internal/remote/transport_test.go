package remote

import (
	"errors"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/racer"
)

// faultConn is a hostile transport under one end of a loopback
// connection: every write is split at random byte boundaries and each
// piece is delayed by up to maxDelay before it goes out, so the reader at
// the other end sees a frame arrive in pieces and late. With cutWrite > 0
// the connection is closed in the middle of the cutWrite-th write — one
// frame, as Conn.Send writes each — at a random byte boundary: the piece
// before the cut goes out, the rest of the frame never does.
//
// It does not duplicate or reorder bytes. The wire carries no sequence
// numbers, so a duplicated or reordered frame cannot be told from a new
// one; surviving that is left to the certificate work that adds them.
type faultConn struct {
	net.Conn
	maxDelay time.Duration
	cutWrite int

	mu     sync.Mutex // serialises writes: a write's pieces go out together
	rng    *rand.Rand
	writes int
}

var errCut = errors.New("faultConn: connection cut")

func (c *faultConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writes++
	end := len(b)
	cut := c.writes == c.cutWrite && len(b) > 1
	if cut {
		end = 1 + c.rng.IntN(len(b)-1)
	}
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
	if cut {
		c.Conn.Close()
		return n, errCut
	}
	return n, nil
}

// faultyTransport returns a loopback wrap that puts a faultConn under
// both ends of every connection, each seeded from seed and the
// connection's place in dial order; the coordinator's end is cut in its
// cutWrite-th write (0: never).
func faultyTransport(seed uint64, maxDelay time.Duration, cutWrite int) func(coord, worker net.Conn) (net.Conn, net.Conn) {
	var dials atomic.Uint64
	return func(coord, worker net.Conn) (net.Conn, net.Conn) {
		i := dials.Add(1)
		wrap := func(nc net.Conn, side uint64, cutWrite int) net.Conn {
			return &faultConn{Conn: nc, maxDelay: maxDelay, cutWrite: cutWrite, rng: rand.New(rand.NewPCG(seed, 2*i+side))}
		}
		return wrap(coord, 0, cutWrite), wrap(worker, 1, 0)
	}
}

// newFaultyLoopbackExecutor is newLoopbackExecutor over faultyTransport.
func newFaultyLoopbackExecutor(t *testing.T, n int, opts Options, seed uint64, cutWrite int) (*Executor, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	opts.Metrics = reg
	e, err := newLoopback(n, opts, WorkerOptions{}, faultyTransport(seed, 200*time.Microsecond, cutWrite))
	if err != nil {
		t.Fatalf("newLoopback: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	return e, reg
}

// TestFaultConnSplitsAndCuts: the transport itself — a write arrives
// whole but in pieces, and a cut write delivers a proper prefix of itself.
func TestFaultConnSplitsAndCuts(t *testing.T) {
	msg := make([]byte, 4096)
	for i := range msg {
		msg[i] = byte(i)
	}
	for _, cutWrite := range []int{0, 1} {
		a, b := net.Pipe()
		fc := &faultConn{Conn: a, maxDelay: time.Microsecond, cutWrite: cutWrite, rng: rand.New(rand.NewPCG(1, 2))}
		errc := make(chan error, 1)
		go func() {
			_, err := fc.Write(msg)
			errc <- err
		}()
		var got []byte
		reads := 0
		buf := make([]byte, len(msg))
		for {
			n, err := b.Read(buf)
			got = append(got, buf[:n]...)
			reads++
			if err != nil || len(got) == len(msg) {
				break
			}
		}
		werr := <-errc
		b.Close()
		switch {
		case cutWrite == 0 && (werr != nil || string(got) != string(msg) || reads < 2):
			t.Errorf("uncut: %d of %d bytes in %d reads (%v), want all of them in pieces", len(got), len(msg), reads, werr)
		case cutWrite > 0 && (!errors.Is(werr, errCut) || len(got) == 0 || len(got) >= len(msg) || string(got) != string(msg[:len(got)])):
			t.Errorf("cut: %d of %d bytes arrived (%v), want a proper prefix", len(got), len(msg), werr)
		}
	}
}

// TestLoopbackCutMidFrame: a coordinator whose connection is cut in the
// middle of a frame — the worker gets part of a race request, the
// coordinator a failed send — loses the worker, re-races the stranded
// attempts locally and reaches the all-local verdict. Reconnects are off,
// so every later depth runs with no worker at all.
func TestLoopbackCutMidFrame(t *testing.T) {
	m := equivalenceModel(t, "cnt_w4_t9")
	for _, shape := range []struct {
		name string
		opts []engine.Option
	}{
		{"portfolio", []engine.Option{engine.WithPortfolio(nil, 0)}},
		{"warm", []engine.Option{engine.WithPortfolio(nil, 0), engine.WithIncremental(),
			engine.WithExchange(racer.ExchangeOptions{Enabled: true})}},
	} {
		base := append([]engine.Option{engine.WithBudgets(9, 0)}, shape.opts...)
		ref := checkWith(t, m, base...)
		// The handshake and two frames go out whole; the fourth frame —
		// a race request unless a ping slipped in — is cut.
		e, reg := newFaultyLoopbackExecutor(t, 1, fastOpts(), 7, 4)
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

package remote

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cnf"
	"repro/internal/engine"
	"repro/internal/lits"
	"repro/internal/obs"
	"repro/internal/portfolio"
)

// Coordinator-side defaults.
const (
	defaultConnectTimeout    = 5 * time.Second
	defaultPingInterval      = 5 * time.Second
	defaultPingMisses        = 3
	defaultReconnectAttempts = 3
	defaultReconnectBackoff  = 250 * time.Millisecond
)

var (
	errLinkDown = errors.New("remote: worker link down")
	errClosed   = errors.New("remote: executor closed")
)

// Options configures a coordinator Executor. The zero value works once
// addresses are supplied to New.
type Options struct {
	// Session names this coordinator in worker logs (handshake Name).
	Session string
	// ConnectTimeout bounds dial and handshake (default 5s).
	ConnectTimeout time.Duration
	// WriteTimeout bounds every frame write (default 10s).
	WriteTimeout time.Duration
	// PingInterval is the heartbeat period (default 5s); a link with no
	// inbound frame for PingInterval*(PingMisses+1) is considered dead.
	PingInterval time.Duration
	// PingMisses is how many silent heartbeat periods evict a link
	// (default 3).
	PingMisses int
	// MaxFrameBytes bounds inbound frames (default DefaultMaxFrameBytes).
	MaxFrameBytes int
	// ReconnectAttempts is how many times a lost worker is redialed
	// before it is abandoned (default 3; negative disables reconnects).
	ReconnectAttempts int
	// ReconnectBackoff is the initial redial delay, doubled per attempt
	// (default 250ms).
	ReconnectBackoff time.Duration
	// Metrics, when non-nil, receives the remote_*/net_* counters.
	Metrics *obs.Registry
	// Tracer, when non-nil, records one span per distributed race on the
	// "remote" lane.
	Tracer *obs.Tracer
	// Dial overrides the transport (default net.DialTimeout over TCP);
	// tests and NewLoopback substitute net.Pipe here.
	Dial func(addr string) (net.Conn, error)
	// Logf, when non-nil, receives link lifecycle and error lines.
	Logf func(format string, args ...any)
}

// withDefaults resolves zero values.
func (o Options) withDefaults() Options {
	if o.Session == "" {
		o.Session = "bmc"
	}
	if o.ConnectTimeout <= 0 {
		o.ConnectTimeout = defaultConnectTimeout
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = defaultWriteTimeout
	}
	if o.PingInterval <= 0 {
		o.PingInterval = defaultPingInterval
	}
	if o.PingMisses <= 0 {
		o.PingMisses = defaultPingMisses
	}
	if o.MaxFrameBytes <= 0 {
		o.MaxFrameBytes = DefaultMaxFrameBytes
	}
	switch {
	case o.ReconnectAttempts == 0:
		o.ReconnectAttempts = defaultReconnectAttempts
	case o.ReconnectAttempts < 0:
		o.ReconnectAttempts = 0
	}
	if o.ReconnectBackoff <= 0 {
		o.ReconnectBackoff = defaultReconnectBackoff
	}
	return o
}

// Executor implements engine.Executor by fanning each race's attempts out
// across a fleet of bmcworker daemons, round-robin, first verdict wins.
// Lost workers are evicted, their attempts re-raced locally, and the link
// redialed in the background with exponential backoff; with every worker
// gone the executor degrades to plain local races, so Session.Check always
// completes with a correct verdict.
//
// No clause of the unrolling crosses a link (see "Warm state over the
// wire"), and a live attempt's local solver loads only in a fallback, so
// under a healthy fleet the coordinator holds no clause and encodes no
// frame. An attempt without an Origin races locally, as a fallback. One
// documented divergence: winner unsat cores stay worker-side, so
// strategy-score feedback derived from cores sees no updates under this
// executor — ordering guidance stays flat, verdicts are unaffected.
type Executor struct {
	opts  Options
	links []*link
	reqID atomic.Uint64

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
	// onClose, when non-nil, runs after every link goroutine has joined
	// (NewLoopback joins its in-process worker handlers here).
	onClose func()

	mRaces, mWins, mFallbacks, mCancels *obs.Counter
}

// Compile-time interface checks: the executor is a drop-in for the
// session's execution seam.
var _ engine.Executor = (*Executor)(nil)

// link is one worker connection and its pending-race bookkeeping. The
// mutex guards only the fields below it — never a frame write or a
// channel send. gen increments per (re)connect so stale failure reports
// from a previous connection's goroutines cannot evict the current one.
// held is the sequence whose circuit the connection last carried, per
// query; a new connection holds none.
type link struct {
	addr string

	mEvict, mReconnect *obs.Counter

	mu           sync.Mutex
	fc           *Conn
	up           bool
	reconnecting bool
	gen          int
	pending      map[uint64]chan linkResult
	held         map[string]*portfolio.Origin
}

// linkResult delivers one race's terminal event to its distribute call:
// a worker response or a link failure.
type linkResult struct {
	l    *link
	id   uint64
	resp *RaceResponse
	err  error
}

// raceFlight is one in-flight per-worker race: the link it runs on and
// the global attempt indices it carries.
type raceFlight struct {
	l    *link
	idxs []int
}

// New connects to every worker address and returns the executor. All
// workers must be reachable at construction time (failing fast beats
// discovering a typo at depth 40); workers lost later are evicted and
// redialed per Options. Close releases everything.
func New(addrs []string, opts Options) (*Executor, error) {
	if len(addrs) == 0 {
		return nil, errors.New("remote: no worker addresses")
	}
	opts = opts.withDefaults()
	e := &Executor{
		opts:   opts,
		closed: make(chan struct{}),

		mRaces:     opts.Metrics.Counter(metricRemoteRaces),
		mWins:      opts.Metrics.Counter(metricRemoteWins),
		mFallbacks: opts.Metrics.Counter(metricRemoteFallbacks),
		mCancels:   opts.Metrics.Counter(metricRemoteCancels),
	}
	for _, addr := range addrs {
		e.links = append(e.links, &link{
			addr:       addr,
			mEvict:     opts.Metrics.Counter(obs.Name(metricRemoteEvictions, "worker", addr)),
			mReconnect: opts.Metrics.Counter(obs.Name(metricRemoteReconnects, "worker", addr)),
		})
	}
	for _, l := range e.links {
		if err := e.connect(l); err != nil {
			e.Close()
			return nil, fmt.Errorf("remote: worker %s: %w", l.addr, err)
		}
	}
	return e, nil
}

// Close tears the executor down: every connection is closed, in-flight
// races fail over to their local fallback, and all link goroutines are
// joined before Close returns.
func (e *Executor) Close() error {
	e.closeOnce.Do(func() {
		close(e.closed)
		for _, l := range e.links {
			l.mu.Lock()
			l.gen++ // invalidate in-flight failure reports
			fc, pend := l.down()
			l.mu.Unlock()
			l.fail(fc, pend, errClosed)
		}
		e.wg.Wait()
		if e.onClose != nil {
			e.onClose()
		}
	})
	return nil
}

// dial resolves the transport.
func (e *Executor) dial(addr string) (net.Conn, error) {
	if e.opts.Dial != nil {
		return e.opts.Dial(addr)
	}
	return net.DialTimeout("tcp", addr, e.opts.ConnectTimeout)
}

// connect dials, handshakes, and installs a fresh connection on l,
// spawning its reader and heartbeat goroutines.
func (e *Executor) connect(l *link) error {
	nc, err := e.dial(l.addr)
	if err != nil {
		return err
	}
	fc := NewConn(nc, e.opts.MaxFrameBytes)
	fc.stats = newWireStats(e.opts.Metrics, "worker", l.addr)
	hello := &Message{Kind: MsgHello, Hello: &Hello{Version: ProtocolVersion, Name: e.opts.Session}}
	if err := fc.Send(hello, e.opts.ConnectTimeout); err != nil {
		fc.Close()
		return fmt.Errorf("handshake write: %w", err)
	}
	ack, err := fc.Recv(e.opts.ConnectTimeout)
	if err != nil {
		fc.Close()
		return fmt.Errorf("handshake read: %w", err)
	}
	if ack.Kind != MsgHelloAck || ack.Hello == nil || ack.Hello.Version != ProtocolVersion {
		fc.Close()
		return fmt.Errorf("bad handshake (kind %v)", ack.Kind)
	}

	l.mu.Lock()
	if e.isClosed() {
		l.mu.Unlock()
		fc.Close()
		return errClosed
	}
	l.gen++
	gen := l.gen
	l.fc = fc
	l.up = true
	l.pending = make(map[uint64]chan linkResult)
	l.held = make(map[string]*portfolio.Origin)
	l.mu.Unlock()

	e.wg.Add(2)
	go e.readLoop(l, fc, gen)
	go e.pingLoop(l, fc, gen)
	return nil
}

// readLoop is the link's single reader: it delivers race responses to
// their distribute calls and enforces the liveness bound (some frame —
// a pong at minimum — must arrive every PingInterval*(PingMisses+1)).
func (e *Executor) readLoop(l *link, fc *Conn, gen int) {
	defer e.wg.Done()
	limit := e.opts.PingInterval * time.Duration(e.opts.PingMisses+1)
	for {
		m, err := fc.Recv(limit)
		if err != nil {
			e.failLink(l, gen, err)
			return
		}
		switch m.Kind {
		case MsgRaceResult:
			if m.Result == nil {
				continue
			}
			l.mu.Lock()
			ch, ok := l.pending[m.Result.ID]
			if ok {
				delete(l.pending, m.Result.ID)
			}
			l.mu.Unlock()
			if ok {
				ch <- linkResult{l: l, id: m.Result.ID, resp: m.Result}
			}
		case MsgPong:
			// Liveness is the Recv deadline; nothing to do.
		case MsgHello, MsgHelloAck, MsgRace, MsgCancel, MsgPing, MsgCircuit, msgKindEnd:
			e.logf("worker %s: unexpected %v frame", l.addr, m.Kind)
		}
	}
}

// pingLoop heartbeats the link so both ends' read deadlines stay ahead
// of a healthy but idle connection.
func (e *Executor) pingLoop(l *link, fc *Conn, gen int) {
	defer e.wg.Done()
	t := time.NewTicker(e.opts.PingInterval)
	defer t.Stop()
	var seq uint64
	for {
		select {
		case <-e.closed:
			return
		case <-t.C:
			seq++
			if err := fc.Send(&Message{Kind: MsgPing, Seq: seq}, e.opts.WriteTimeout); err != nil {
				e.failLink(l, gen, err)
				return
			}
		}
	}
}

// failLink evicts a broken connection: pending races fail over to their
// callers, the link is marked down, and (once per outage) a background
// reconnect starts. gen guards against a stale goroutine evicting a
// connection established after its own died.
func (e *Executor) failLink(l *link, gen int, cause error) {
	l.mu.Lock()
	if l.gen != gen || !l.up {
		l.mu.Unlock()
		return
	}
	fc, pend := l.down()
	again := !l.reconnecting && !e.isClosed() && e.opts.ReconnectAttempts > 0
	if again {
		l.reconnecting = true
	}
	l.mu.Unlock()

	l.fail(fc, pend, cause)
	if e.isClosed() {
		return
	}
	l.mEvict.Inc()
	e.logf("worker %s: evicted: %v", l.addr, cause)
	if again {
		e.wg.Add(1)
		go e.reconnectLoop(l)
	}
}

// down marks the link down and takes its connection and pending races;
// the caller holds l.mu.
func (l *link) down() (*Conn, map[uint64]chan linkResult) {
	fc, pend := l.fc, l.pending
	l.up, l.fc, l.pending, l.held = false, nil, nil, nil
	return fc, pend
}

// fail closes a connection down took and fails its pending races with err.
func (l *link) fail(fc *Conn, pend map[uint64]chan linkResult, err error) {
	if fc != nil {
		fc.Close()
	}
	for id, ch := range pend {
		ch <- linkResult{l: l, id: id, err: err}
	}
}

// reconnectLoop redials an evicted link with doubling backoff. On
// success the link holds no circuit, so each query's next race resends its
// circuit first, and the worker's mirrors start empty — cold, but sound.
func (e *Executor) reconnectLoop(l *link) {
	defer e.wg.Done()
	defer func() {
		l.mu.Lock()
		l.reconnecting = false
		l.mu.Unlock()
	}()
	backoff := e.opts.ReconnectBackoff
	for attempt := 1; attempt <= e.opts.ReconnectAttempts; attempt++ {
		select {
		case <-e.closed:
			return
		case <-time.After(backoff):
		}
		backoff *= 2
		if err := e.connect(l); err != nil {
			e.logf("worker %s: reconnect %d/%d: %v", l.addr, attempt, e.opts.ReconnectAttempts, err)
			continue
		}
		l.mReconnect.Inc()
		e.logf("worker %s: reconnected", l.addr)
		return
	}
	e.logf("worker %s: abandoned after %d reconnect attempts", l.addr, e.opts.ReconnectAttempts)
}

// Race implements engine.Executor: the cold race, distributed. Each
// worker builds the depth-K instance of the attempts' Origin and races
// throwaway solvers over it for its slice of the attempts. f is read by
// the local fallback only, portfolio.Race, which joins its workers before
// Race returns; an attempt's Solver likewise.
func (e *Executor) Race(query engine.Query, f *cnf.Formula, attempts []portfolio.Attempt, jobs int, stop <-chan struct{}) portfolio.RaceResult {
	wire := make([]WireAttempt, len(attempts))
	for i, a := range attempts {
		wire[i] = WireAttempt{Name: a.Name, Opts: toWireOptions(a.Opts)}
	}
	req := RaceRequest{Query: string(query), Jobs: jobs}
	var origin *portfolio.Origin
	if len(attempts) > 0 {
		origin, req.K = attempts[0].Origin, attempts[0].K
	}
	return e.distribute(origin, req, wire, func(idxs []int) portfolio.RaceResult {
		sub := make([]portfolio.Attempt, len(idxs))
		for j, idx := range idxs {
			sub[j] = attempts[idx]
		}
		return portfolio.Race(f, sub, jobs, stop)
	}, stop)
}

// RaceLive implements engine.Executor: the warm race, distributed. Each
// worker races its per-(session, query, strategy) mirror solvers on its own
// unrolling of the attempts' Origin, sized by the pool's hint (the attempts
// share one). No local solver is asked for unless a worker is lost
// mid-race: the lost slice then re-races through portfolio.RaceLive, which
// is where its solvers load.
func (e *Executor) RaceLive(query engine.Query, attempts []portfolio.LiveAttempt, assumps []lits.Lit, jobs int, stop <-chan struct{}) portfolio.RaceResult {
	wire := make([]WireAttempt, len(attempts))
	for i, a := range attempts {
		wire[i] = WireAttempt{Name: a.Name, Opts: toWireOptions(a.Opts)}
	}
	req := RaceRequest{Query: string(query), Live: true, Assumps: assumps, Jobs: jobs}
	var origin *portfolio.Origin
	if len(attempts) > 0 {
		origin, req.K, req.Grow = attempts[0].Origin, attempts[0].K, attempts[0].Grow
	}
	return e.distribute(origin, req, wire, func(idxs []int) portfolio.RaceResult {
		sub := make([]portfolio.LiveAttempt, len(idxs))
		for j, idx := range idxs {
			sub[j] = attempts[idx]
		}
		return portfolio.RaceLive(sub, assumps, jobs, stop)
	}, stop)
}

// distribute is the common fan-out: partition the attempt indices
// round-robin over the healthy links, send each link req with its slice of
// the attempts (encoded, guidance included, on this goroutine), and drain
// until every flight is accounted for — first verdict wins and cancels the
// rest. Attempts stranded on failed workers (or with no worker at all, or
// no origin to unroll) re-race through fallback, on the in-process pool,
// unless a verdict already exists or the caller's stop closed.
func (e *Executor) distribute(
	origin *portfolio.Origin,
	req RaceRequest,
	wire []WireAttempt,
	fallback func(idxs []int) portfolio.RaceResult,
	stop <-chan struct{},
) portfolio.RaceResult {
	e.mRaces.Inc()
	sp := e.opts.Tracer.Begin("remote", req.Query+" race")
	defer sp.End()
	start := time.Now()
	res := portfolio.RaceResult{Winner: -1, Start: start}
	res.Outcomes = make([]portfolio.AttemptOutcome, len(wire))
	for i, a := range wire {
		res.Outcomes[i] = portfolio.AttemptOutcome{Name: a.Name, Skipped: true}
	}

	var healthy []*link
	if origin != nil {
		healthy = e.healthyLinks()
	}
	var failed []int
	outstanding := make(map[uint64]raceFlight)
	results := make(chan linkResult, len(healthy))

	if len(healthy) == 0 {
		for i := range wire {
			failed = append(failed, i)
		}
	} else {
		parts := partition(len(wire), len(healthy))
		for wi, l := range healthy {
			idxs := parts[wi]
			if len(idxs) == 0 {
				continue
			}
			r := req
			r.ID, r.Attempts = e.reqID.Add(1), pick(wire, idxs)
			if err := e.sendRace(l, origin, &r, results); err != nil {
				failed = append(failed, idxs...)
				continue
			}
			outstanding[r.ID] = raceFlight{l: l, idxs: idxs}
		}
	}

	cancelSent := false
	stopCh := stop
	for len(outstanding) > 0 {
		select {
		case r := <-results:
			fl, ok := outstanding[r.id]
			if !ok {
				continue
			}
			delete(outstanding, r.id)
			switch {
			case r.err != nil:
				failed = append(failed, fl.idxs...)
			case r.resp.Err != "":
				e.logf("worker %s: race rejected: %s", fl.l.addr, r.resp.Err)
				failed = append(failed, fl.idxs...)
			default:
				for j, idx := range fl.idxs {
					if j < len(r.resp.Race.Outcomes) {
						res.Outcomes[idx] = r.resp.Race.Outcomes[j]
					}
				}
				w := r.resp.Race.Winner
				if res.Winner < 0 && w >= 0 && w < len(fl.idxs) && r.resp.Race.Result.Status.Decided() {
					res.Winner = fl.idxs[w]
					res.Result = r.resp.Race.Result
					e.mWins.Inc()
					if !cancelSent {
						cancelSent = true
						e.cancelOutstanding(outstanding)
					}
				}
			}
		case <-stopCh:
			// Drain continues: every flight must still be accounted for
			// (the cancelled workers answer promptly; a dead one fails its
			// flight through the reader's deadline).
			stopCh = nil
			if !cancelSent {
				cancelSent = true
				e.cancelOutstanding(outstanding)
			}
		}
	}

	if len(failed) > 0 && res.Winner < 0 && !stopClosed(stop) {
		sort.Ints(failed)
		e.mFallbacks.Inc()
		fr := fallback(failed)
		for j, idx := range failed {
			if j < len(fr.Outcomes) {
				res.Outcomes[idx] = fr.Outcomes[j]
			}
		}
		if fr.Winner >= 0 && fr.Winner < len(failed) {
			res.Winner = failed[fr.Winner]
			res.Result = fr.Result
		}
	}
	res.Wall = time.Since(start)
	sp.SetArg("winner", res.WinnerName())
	return res
}

// sendRace registers the race as pending and writes its request, preceded
// by the circuit of origin if the link does not hold it for the request's
// query. A nil return guarantees exactly one linkResult for the ID will
// arrive on ch (response or link failure); an error means no delivery will
// happen and the caller owns the attempts.
func (e *Executor) sendRace(l *link, origin *portfolio.Origin, req *RaceRequest, ch chan linkResult) error {
	l.mu.Lock()
	if !l.up {
		l.mu.Unlock()
		return errLinkDown
	}
	fc, gen := l.fc, l.gen
	ship := l.held[req.Query] != origin
	l.held[req.Query] = origin
	l.pending[req.ID] = ch
	l.mu.Unlock()

	var err error
	if ship {
		u := origin.Unroller
		err = fc.Send(&Message{Kind: MsgCircuit, Circuit: &WireCircuit{
			Query: req.Query, Step: origin.Step, Property: u.PropIdx(), Circuit: u.Circuit(),
		}}, e.opts.WriteTimeout)
	}
	if err == nil {
		err = fc.Send(&Message{Kind: MsgRace, Race: req}, e.opts.WriteTimeout)
	}
	if err != nil {
		l.mu.Lock()
		_, mine := l.pending[req.ID] // a nil map, once the link is down, holds nothing
		delete(l.pending, req.ID)
		l.mu.Unlock()
		e.failLink(l, gen, err)
		if mine {
			return err
		}
		// A concurrent failLink already owned the pending entry and
		// delivered the failure to ch; report success so the caller waits
		// for it instead of double-counting the attempts.
	}
	return nil
}

// cancelOutstanding asks the still-racing workers to stop; their
// responses (Interrupted outcomes) still arrive and are drained.
func (e *Executor) cancelOutstanding(outstanding map[uint64]raceFlight) {
	for id, fl := range outstanding {
		if e.send(fl.l, &Message{Kind: MsgCancel, Cancel: &Cancel{ID: id}}) {
			e.mCancels.Inc()
		}
	}
}

// OnClausePayload implements engine.Executor with an empty body: the
// engine never calls it, and it stays only for the frozen benchmark's
// decorator (benchmark/decorator.go).
func (e *Executor) OnClausePayload(engine.Query, int, string, []cnf.Clause) {}

// send writes m on the link's connection if it is up, and evicts the link
// if the write fails. It reports whether m went out.
func (e *Executor) send(l *link, m *Message) bool {
	l.mu.Lock()
	fc, up, gen := l.fc, l.up, l.gen
	l.mu.Unlock()
	if !up {
		return false
	}
	if err := fc.Send(m, e.opts.WriteTimeout); err != nil {
		e.failLink(l, gen, err)
		return false
	}
	return true
}

// healthyLinks snapshots the up links in configuration order.
func (e *Executor) healthyLinks() []*link {
	out := make([]*link, 0, len(e.links))
	for _, l := range e.links {
		l.mu.Lock()
		up := l.up
		l.mu.Unlock()
		if up {
			out = append(out, l)
		}
	}
	return out
}

// isClosed reports whether Close has begun.
func (e *Executor) isClosed() bool {
	select {
	case <-e.closed:
		return true
	default:
		return false
	}
}

// logf is nil-safe.
func (e *Executor) logf(format string, args ...any) {
	if e.opts.Logf != nil {
		e.opts.Logf(format, args...)
	}
}

// partition deals n attempt indices round-robin over w workers.
func partition(n, w int) [][]int {
	parts := make([][]int, w)
	for i := 0; i < n; i++ {
		parts[i%w] = append(parts[i%w], i)
	}
	return parts
}

// pick subsets the wire attempts by index.
func pick(wire []WireAttempt, idxs []int) []WireAttempt {
	out := make([]WireAttempt, len(idxs))
	for j, idx := range idxs {
		out[j] = wire[idx]
	}
	return out
}

// stopClosed reports whether the caller's stop channel is closed (nil
// never is).
func stopClosed(stop <-chan struct{}) bool {
	if stop == nil {
		return false
	}
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

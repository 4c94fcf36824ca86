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
	"repro/internal/racer"
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

// ShareOptions switches the over-the-wire half of the clause bus: learned
// clauses returned by worker mirrors and payloads exported by the local
// pool are rebroadcast to the other workers under the racer exchange's
// default filters (racer.DefaultExchangeMaxLen, DefaultExchangeMaxLBD,
// DefaultExchangeBudget per link and payload). The zero value shares.
type ShareOptions struct {
	// Off disables clause traffic entirely.
	Off bool
}

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
	// Share switches clause forwarding. With two or more workers, the
	// first configured worker receives no forwarded clauses — the
	// distributed analogue of the warm pool's ReserveFirst slot, keeping
	// one search trajectory unpolluted.
	Share ShareOptions
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

// Executor implements engine.Executor (and engine.FrameSink) by fanning
// each race's attempts out across a fleet of bmcworker daemons,
// round-robin, first verdict wins. Lost workers are evicted, their
// attempts re-raced locally, and the link redialed in the background
// with exponential backoff; with every worker gone the executor
// degrades to plain local races, so Session.Check always completes with
// a correct verdict. Frames reported through OnFrame are retained and
// shipped per-link above a high-water mark (reset on reconnect, so a
// fresh worker replays the whole unrolling); clause-bus payloads flow
// both directions under the racer exchange's filters.
//
// A live attempt carries the options and guidance it runs under and a
// function that loads its local solver; the executor ships the former and
// calls the latter only in a fallback, so under a healthy fleet the
// coordinator's pool holds no clause at all and a lost worker's slice
// catches up locally at the moment it is needed. Remote mirrors load the
// same frames, options, and guidance the local solver would, so verdicts
// and depths are equivalent to LocalExecutor by construction. One
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

	fmu    sync.Mutex
	frames map[string][]WireFrame

	mRaces, mWins, mFallbacks, mCancels *obs.Counter
	mClausesFwd, mClausesBack           *obs.Counter
}

// Compile-time interface checks: the executor is a drop-in for the
// session's execution seam.
var (
	_ engine.Executor  = (*Executor)(nil)
	_ engine.FrameSink = (*Executor)(nil)
)

// link is one worker connection and its pending-race bookkeeping. The
// mutex guards only the fields below it — never a frame write or a
// channel send. gen increments per (re)connect so stale failure reports
// from a previous connection's goroutines cannot evict the current one.
type link struct {
	addr string

	mEvict, mReconnect *obs.Counter

	mu           sync.Mutex
	fc           *Conn
	up           bool
	reconnecting bool
	gen          int
	pending      map[uint64]chan linkResult
	shipped      map[string]int
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

// linkExport is one worker's returned learned clauses.
type linkExport struct {
	l       *link
	clauses []cnf.Clause
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
		frames: make(map[string][]WireFrame),

		mRaces:       opts.Metrics.Counter(metricRemoteRaces),
		mWins:        opts.Metrics.Counter(metricRemoteWins),
		mFallbacks:   opts.Metrics.Counter(metricRemoteFallbacks),
		mCancels:     opts.Metrics.Counter(metricRemoteCancels),
		mClausesFwd:  opts.Metrics.Counter(metricRemoteClausesFwd),
		mClausesBack: opts.Metrics.Counter(metricRemoteClausesBack),
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
			l.up = false
			fc := l.fc
			l.fc = nil
			pend := l.pending
			l.pending = nil
			l.shipped = nil
			l.mu.Unlock()
			if fc != nil {
				fc.Close()
			}
			for id, ch := range pend {
				ch <- linkResult{l: l, id: id, err: errClosed}
			}
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
	if e.opts.Metrics != nil {
		fc.stats = wireStats{
			framesSent: e.opts.Metrics.Counter(obs.Name(metricNetFramesSent, "worker", l.addr)),
			framesRecv: e.opts.Metrics.Counter(obs.Name(metricNetFramesRecv, "worker", l.addr)),
			bytesSent:  e.opts.Metrics.Counter(obs.Name(metricNetBytesSent, "worker", l.addr)),
			bytesRecv:  e.opts.Metrics.Counter(obs.Name(metricNetBytesRecv, "worker", l.addr)),
		}
	}
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
	l.shipped = make(map[string]int)
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
		case MsgHello, MsgHelloAck, MsgRace, MsgCancel, MsgClauses, MsgPing, msgKindEnd:
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
	l.up = false
	fc := l.fc
	l.fc = nil
	pend := l.pending
	l.pending = nil
	l.shipped = nil
	again := !l.reconnecting && !e.isClosed() && e.opts.ReconnectAttempts > 0
	if again {
		l.reconnecting = true
	}
	l.mu.Unlock()

	if fc != nil {
		fc.Close()
	}
	for id, ch := range pend {
		ch <- linkResult{l: l, id: id, err: cause}
	}
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

// reconnectLoop redials an evicted link with doubling backoff. On
// success the link's shipped marks start empty, so the next race ships
// the full frame history — cold, but sound.
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
// worker builds throwaway solvers over the full formula for its slice
// of the attempts.
//
// f is the caller's again when Race returns, as the contract requires: a
// request is encoded, clauses and guidance included, inside the sendRace
// call that distribute makes on this goroutine (Conn.Send stages the whole
// frame before it writes), so no sender outlives the call holding f — a
// lost link fails the send or the flight, it does not defer the encoding —
// and the local fallback is portfolio.Race, which joins its workers. An
// attempt's Solver is used by that fallback only; workers load new solvers.
func (e *Executor) Race(query engine.Query, f *cnf.Formula, attempts []portfolio.Attempt, jobs int, stop <-chan struct{}) portfolio.RaceResult {
	qs := string(query)
	e.mRaces.Inc()
	sp := e.opts.Tracer.Begin("remote", qs+" race")
	defer sp.End()

	names := make([]string, len(attempts))
	wire := make([]WireAttempt, len(attempts))
	for i, a := range attempts {
		names[i] = a.Name
		wire[i] = WireAttempt{Name: a.Name, Opts: toWireOptions(a.Opts)}
	}
	res, _ := e.distribute(names,
		func(l *link, id uint64, idxs []int) *RaceRequest {
			return &RaceRequest{
				ID: id, Query: qs, Live: false,
				NumVars: f.NumVars, Formula: f.Clauses,
				Attempts: pick(wire, idxs), Jobs: jobs,
			}
		},
		func(idxs []int) portfolio.RaceResult {
			sub := make([]portfolio.Attempt, len(idxs))
			for j, idx := range idxs {
				sub[j] = attempts[idx]
			}
			return portfolio.Race(f, sub, jobs, stop)
		},
		stop)
	sp.SetArg("winner", res.WinnerName())
	return res
}

// RaceLive implements engine.Executor: the warm race, distributed. Each
// worker races its per-(session, query, strategy) mirror solvers, loading
// the ones that get to search with the frames they are missing, sized by
// the pool's hint (the attempts share one) and under guidance that crosses
// as runs, compressed here, before the first send. No local solver is
// asked for unless a worker is lost mid-race: the lost slice then re-races
// through portfolio.RaceLive, which is where its solvers load.
// Clauses the mirrors learned come back in RaceResult.Foreign for the
// caller to import.
func (e *Executor) RaceLive(query engine.Query, attempts []portfolio.LiveAttempt, assumps []lits.Lit, jobs int, stop <-chan struct{}) portfolio.RaceResult {
	qs := string(query)
	e.mRaces.Inc()
	sp := e.opts.Tracer.Begin("remote", qs+" race")
	defer sp.End()

	names := make([]string, len(attempts))
	wire := make([]WireAttempt, len(attempts))
	for i, a := range attempts {
		names[i] = a.Name
		wire[i] = WireAttempt{Name: a.Name, Opts: toWireOptions(a.Opts)}
	}
	shareOn := !e.opts.Share.Off
	res, exports := e.distribute(names,
		func(l *link, id uint64, idxs []int) *RaceRequest {
			k, frames := e.takeFrames(l, qs)
			req := &RaceRequest{
				ID: id, Query: qs, K: k, Live: true,
				Frames: frames, Assumps: assumps,
				Attempts: pick(wire, idxs), Jobs: jobs,
				Grow: attempts[idxs[0]].Grow,
			}
			if shareOn {
				req.ExportMaxLen = racer.DefaultExchangeMaxLen
				req.ExportMaxLBD = racer.DefaultExchangeMaxLBD
				req.ExportBudget = racer.DefaultExchangeBudget
			}
			return req
		},
		func(idxs []int) portfolio.RaceResult {
			sub := make([]portfolio.LiveAttempt, len(idxs))
			for j, idx := range idxs {
				sub[j] = attempts[idx]
			}
			return portfolio.RaceLive(sub, assumps, jobs, stop)
		},
		stop)
	if shareOn && len(exports) > 0 {
		res.Foreign = e.redistribute(qs, exports)
	}
	sp.SetArg("winner", res.WinnerName())
	return res
}

// distribute is the common fan-out: partition the attempt indices
// round-robin over the healthy links, send one RaceRequest per link,
// and drain until every flight is accounted for — first verdict wins
// and cancels the rest. Attempts stranded on failed workers (or with no
// worker at all) re-race through fallback, which runs them on the
// in-process pool; the fallback is skipped when a verdict already
// exists or the caller's stop closed, because it could no longer change
// the answer.
func (e *Executor) distribute(
	names []string,
	build func(l *link, id uint64, idxs []int) *RaceRequest,
	fallback func(idxs []int) portfolio.RaceResult,
	stop <-chan struct{},
) (portfolio.RaceResult, []linkExport) {
	start := time.Now()
	res := portfolio.RaceResult{Winner: -1, Start: start}
	res.Outcomes = make([]portfolio.AttemptOutcome, len(names))
	for i, n := range names {
		res.Outcomes[i] = portfolio.AttemptOutcome{Name: n, Skipped: true}
	}

	healthy := e.healthyLinks()
	var failed []int
	outstanding := make(map[uint64]raceFlight)
	results := make(chan linkResult, len(healthy))

	if len(healthy) == 0 {
		for i := range names {
			failed = append(failed, i)
		}
	} else {
		parts := partition(len(names), len(healthy))
		for wi, l := range healthy {
			idxs := parts[wi]
			if len(idxs) == 0 {
				continue
			}
			id := e.reqID.Add(1)
			if err := e.sendRace(l, build(l, id, idxs), results); err != nil {
				failed = append(failed, idxs...)
				continue
			}
			outstanding[id] = raceFlight{l: l, idxs: idxs}
		}
	}

	var exports []linkExport
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
				if len(r.resp.Exported) > 0 {
					exports = append(exports, linkExport{l: fl.l, clauses: r.resp.Exported})
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
	return res, exports
}

// sendRace registers the race as pending and writes its request. A nil
// return guarantees exactly one linkResult for the ID will arrive on ch
// (response or link failure); an error means no delivery will happen
// and the caller owns the attempts.
func (e *Executor) sendRace(l *link, req *RaceRequest, ch chan linkResult) error {
	l.mu.Lock()
	if !l.up {
		l.mu.Unlock()
		return errLinkDown
	}
	fc, gen := l.fc, l.gen
	l.pending[req.ID] = ch
	l.mu.Unlock()

	if err := fc.Send(&Message{Kind: MsgRace, Race: req}, e.opts.WriteTimeout); err != nil {
		l.mu.Lock()
		var mine bool
		if l.pending != nil {
			_, mine = l.pending[req.ID]
			if mine {
				delete(l.pending, req.ID)
			}
		}
		l.mu.Unlock()
		e.failLink(l, gen, err)
		if mine {
			return err
		}
		// A concurrent failLink already owned the pending entry and
		// delivered the failure to ch; report success so the caller waits
		// for it instead of double-counting the attempts.
		return nil
	}
	return nil
}

// cancelOutstanding asks the still-racing workers to stop; their
// responses (Interrupted outcomes) still arrive and are drained.
func (e *Executor) cancelOutstanding(outstanding map[uint64]raceFlight) {
	for id, fl := range outstanding {
		l := fl.l
		l.mu.Lock()
		fc, up, gen := l.fc, l.up, l.gen
		l.mu.Unlock()
		if !up {
			continue
		}
		if err := fc.Send(&Message{Kind: MsgCancel, Cancel: &Cancel{ID: id}}, e.opts.WriteTimeout); err != nil {
			e.failLink(l, gen, err)
			continue
		}
		e.mCancels.Inc()
	}
}

// OnFrame implements engine.FrameSink: the session reports each
// unrolled frame once, and the executor retains it for per-link
// shipping (including full replays to reconnected workers).
func (e *Executor) OnFrame(query engine.Query, k int, frame *cnf.Formula) {
	qs := string(query)
	e.fmu.Lock()
	if k == len(e.frames[qs]) {
		e.frames[qs] = append(e.frames[qs], WireFrame{K: k, NumVars: frame.NumVars, Clauses: frame.Clauses})
	}
	e.fmu.Unlock()
}

// takeFrames advances the link's high-water mark for the query and
// returns the frames it has not yet been sent, plus the current depth.
func (e *Executor) takeFrames(l *link, qs string) (int, []WireFrame) {
	e.fmu.Lock()
	all := e.frames[qs]
	e.fmu.Unlock()
	var frames []WireFrame
	l.mu.Lock()
	if l.up && l.shipped != nil {
		start := l.shipped[qs]
		if start > len(all) {
			start = len(all)
		}
		frames = all[start:]
		l.shipped[qs] = len(all)
	}
	l.mu.Unlock()
	return len(all) - 1, frames
}

// OnClausePayload implements engine.Executor: a local racer exported
// clauses at a depth boundary (this happens when the local pool
// actually solved — fallback periods). They are forwarded to every
// healthy worker except the reserve link, which stays import-free.
func (e *Executor) OnClausePayload(query engine.Query, k int, from string, clauses []cnf.Clause) {
	qs := string(query)
	if e.opts.Share.Off || len(clauses) == 0 {
		return
	}
	filtered := filterClauses(clauses, racer.DefaultExchangeMaxLen, racer.DefaultExchangeBudget)
	if len(filtered) == 0 {
		return
	}
	reserve := e.reserveLink()
	for _, l := range e.healthyLinks() {
		if l == reserve {
			continue
		}
		e.forwardClauses(l, qs, k, from, filtered)
	}
}

// redistribute rebroadcasts worker-exported clauses to the other workers
// (minus the origin and the reserve link) and returns them, filtered, for
// the local pool: its solvers import them at the depth boundary — or when
// a fallback first loads them — so the fallback path stays warm.
func (e *Executor) redistribute(qs string, exports []linkExport) []cnf.Clause {
	k := e.depthOf(qs)
	reserve := e.reserveLink()
	healthy := e.healthyLinks()
	var back []cnf.Clause
	for _, ex := range exports {
		filtered := filterClauses(ex.clauses, racer.DefaultExchangeMaxLen, racer.DefaultExchangeBudget)
		if len(filtered) == 0 {
			continue
		}
		e.mClausesBack.Add(int64(len(filtered)))
		from := "worker:" + ex.l.addr
		for _, l := range healthy {
			if l == ex.l || l == reserve {
				continue
			}
			e.forwardClauses(l, qs, k, from, filtered)
		}
		back = append(back, filtered...)
	}
	return back
}

// forwardClauses ships one clause payload to a worker; a failed write
// evicts the link (clause traffic is best-effort, races are not).
func (e *Executor) forwardClauses(l *link, qs string, k int, from string, clauses []cnf.Clause) {
	l.mu.Lock()
	if !l.up {
		l.mu.Unlock()
		return
	}
	fc, gen := l.fc, l.gen
	l.mu.Unlock()
	msg := &Message{Kind: MsgClauses, Clauses: &ClausePayload{Query: qs, K: k, From: from, Clauses: clauses}}
	if err := fc.Send(msg, e.opts.WriteTimeout); err != nil {
		e.failLink(l, gen, err)
		return
	}
	e.mClausesFwd.Add(int64(len(clauses)))
}

// depthOf is the query's current unrolled depth (-1 before any frame).
func (e *Executor) depthOf(qs string) int {
	e.fmu.Lock()
	defer e.fmu.Unlock()
	return len(e.frames[qs]) - 1
}

// reserveLink is the import-free diversity worker: the first configured
// link, active only with at least two workers.
func (e *Executor) reserveLink() *link {
	if len(e.links) < 2 {
		return nil
	}
	return e.links[0]
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

// filterClauses applies the length filter and per-link budget.
func filterClauses(clauses []cnf.Clause, maxLen, budget int) []cnf.Clause {
	out := make([]cnf.Clause, 0, len(clauses))
	for _, cl := range clauses {
		if maxLen > 0 && len(cl) > maxLen {
			continue
		}
		out = append(out, cl)
		if budget > 0 && len(out) >= budget {
			break
		}
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

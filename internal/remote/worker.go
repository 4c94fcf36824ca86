package remote

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/cnf"
	"repro/internal/obs"
	"repro/internal/portfolio"
	"repro/internal/racer"
	"repro/internal/sat"
	"repro/internal/unroll"
)

// Worker-side defaults. The idle timeout must comfortably exceed the
// coordinator's heartbeat interval: a healthy coordinator pings every
// few seconds, so a connection that stays silent for minutes belongs to
// a dead or partitioned coordinator and its mirrors should be reaped.
const (
	defaultIdleTimeout  = 2 * time.Minute
	defaultWriteTimeout = 10 * time.Second
)

// WorkerOptions configures a worker daemon. The zero value works.
type WorkerOptions struct {
	// Name is reported in the handshake (default "bmcworker").
	Name string
	// MaxFrameBytes bounds inbound frame payloads (default
	// DefaultMaxFrameBytes).
	MaxFrameBytes int
	// IdleTimeout evicts a connection whose coordinator has gone silent
	// (no frames, not even heartbeats; default 2m).
	IdleTimeout time.Duration
	// WriteTimeout bounds every frame write (default 10s).
	WriteTimeout time.Duration
	// Metrics, when non-nil, receives the worker's wire and race
	// counters.
	Metrics *obs.Registry
	// Logf, when non-nil, receives connection lifecycle and error lines.
	Logf func(format string, args ...any)
}

// withDefaults resolves zero values.
func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.Name == "" {
		o.Name = "bmcworker"
	}
	if o.MaxFrameBytes <= 0 {
		o.MaxFrameBytes = DefaultMaxFrameBytes
	}
	if o.IdleTimeout <= 0 {
		o.IdleTimeout = defaultIdleTimeout
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = defaultWriteTimeout
	}
	return o
}

// Worker executes races for remote coordinators. Each connection gets
// its own isolated solver state — the circuit of each query and
// per-(query, strategy) persistent mirror solvers, loaded from its
// unrolling when they are about to search, exactly as racer.Pool loads its
// local racers — so one daemon serves many concurrent sessions, and a
// session's mirrors die with its connection. A Worker is safe for
// concurrent use; Serve and ServeConn may be called from any number of
// goroutines.
type Worker struct {
	opts WorkerOptions
	// afterRace, when non-nil, sees a live race's query state once the race
	// is done, while the race still owns it (tests).
	afterRace func(q *workerQuery)
}

// NewWorker builds a worker daemon.
func NewWorker(opts WorkerOptions) *Worker {
	return &Worker{opts: opts.withDefaults()}
}

// Serve accepts connections until the listener fails (closing the
// listener is the shutdown signal) and serves each on its own
// goroutine. It returns the accept error after every connection
// handler has finished.
func (w *Worker) Serve(ln net.Listener) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		nc, err := ln.Accept()
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.ServeConn(nc)
		}()
	}
}

// ServeConn serves one coordinator connection to completion: handshake,
// then the request loop until the connection fails or goes idle. All
// races started on the connection are cancelled and joined before
// ServeConn returns, so the caller observes no goroutine or solver
// leakage past it.
func (w *Worker) ServeConn(nc net.Conn) {
	fc := NewConn(nc, w.opts.MaxFrameBytes)
	fc.stats = newWireStats(w.opts.Metrics)
	defer fc.Close()
	peer := fc.RemoteAddr()

	m, err := fc.Recv(w.opts.IdleTimeout)
	if err != nil {
		w.logf("%s: handshake read: %v", peer, err)
		return
	}
	if m.Kind != MsgHello || m.Hello == nil || m.Hello.Version != ProtocolVersion {
		w.logf("%s: bad handshake (kind %v)", peer, m.Kind)
		return
	}
	ack := &Message{Kind: MsgHelloAck, Hello: &Hello{Version: ProtocolVersion, Name: w.opts.Name}}
	if err := fc.Send(ack, w.opts.WriteTimeout); err != nil {
		w.logf("%s: handshake write: %v", peer, err)
		return
	}
	w.logf("%s: session %q connected", peer, m.Hello.Name)

	sess := newConnSession()
	// A connection that ends answers none of its running races: they are
	// cancelled and the connection closed before they are joined, so the
	// coordinator fails them over to its local solvers instead of taking a
	// race cut short here for one that could not decide.
	var races sync.WaitGroup
	defer func() {
		sess.cancelAll()
		fc.Close()
		races.Wait()
	}()

	w.opts.Metrics.Counter(metricWorkerConnections).Inc()
	mRaces, mRaceErrs := w.opts.Metrics.Counter(metricWorkerRaces), w.opts.Metrics.Counter(metricWorkerRaceErrors)

	for {
		m, err := fc.Recv(w.opts.IdleTimeout)
		if err != nil {
			w.logf("%s: closing: %v", peer, err)
			return
		}
		switch m.Kind {
		case MsgPing:
			if err := fc.Send(&Message{Kind: MsgPong, Seq: m.Seq}, w.opts.WriteTimeout); err != nil {
				w.logf("%s: pong: %v", peer, err)
				return
			}
		case MsgRace:
			req := m.Race
			if req == nil {
				continue
			}
			stop := sess.register(req.ID)
			mRaces.Inc()
			races.Add(1)
			go func() {
				defer races.Done()
				resp := w.runRace(sess, req, stop)
				if resp.Err != "" {
					mRaceErrs.Inc()
				}
				sess.cancel(req.ID)
				if err := fc.Send(&Message{Kind: MsgRaceResult, Result: resp}, w.opts.WriteTimeout); err != nil {
					w.logf("%s: race %d response: %v", peer, req.ID, err)
				}
			}()
		case MsgCancel:
			if m.Cancel != nil {
				sess.cancel(m.Cancel.ID)
			}
		case MsgCircuit:
			if m.Circuit != nil {
				if err := sess.install(m.Circuit); err != nil {
					w.logf("%s: circuit of query %q: %v", peer, m.Circuit.Query, err)
				}
			}
		case MsgHello, MsgHelloAck, MsgRaceResult, MsgPong, msgKindEnd:
			w.logf("%s: unexpected %v frame", peer, m.Kind)
		}
	}
}

// logf is nil-safe.
func (w *Worker) logf(format string, args ...any) {
	if w.opts.Logf != nil {
		w.opts.Logf(format, args...)
	}
}

// runRace executes one race request against the connection's state.
func (w *Worker) runRace(sess *connSession, req *RaceRequest, stop <-chan struct{}) *RaceResponse {
	q, err := sess.begin(req)
	if err != nil {
		return &RaceResponse{ID: req.ID, Err: err.Error()}
	}
	defer sess.end(q)

	if !req.Live {
		f := q.instance().Extend(req.K)
		attempts := make([]portfolio.Attempt, len(req.Attempts))
		for i, a := range req.Attempts {
			attempts[i] = portfolio.Attempt{Name: a.Name, Opts: a.Opts.toSatOptions()}
			attempts[i].Opts.Guidance = a.Opts.Guidance.expand(nil, f.NumVars+1, 0)
		}
		return &RaceResponse{ID: req.ID, Race: portfolio.Race(f, attempts, req.Jobs, stop)}
	}

	// The query is marked busy: this goroutine owns its mirrors until end,
	// and hands each to at most one race goroutine. A mirror takes the
	// frames it is missing (depth k's encoded once, by the first mirror to
	// need it) when it is about to search.
	k := req.K
	frames := racer.NewDepthFrames(q.src, k)
	scores := q.src.NumVars(k) + 1
	attempts := make([]portfolio.LiveAttempt, len(req.Attempts))
	for i := range req.Attempts {
		a := &req.Attempts[i]
		m := q.mirrors[a.Name]
		if m == nil {
			m = new(mirror)
			q.mirrors[a.Name] = m
		}
		attempts[i] = portfolio.LiveAttempt{Name: a.Name, Solver: func() *sat.Solver {
			return m.catchUp(k, frames, scores, &a.Opts, req.Grow)
		}}
	}

	race := portfolio.RaceLive(attempts, req.Assumps, req.Jobs, stop)
	if w.afterRace != nil {
		w.afterRace(q)
	}
	return &RaceResponse{ID: req.ID, Race: race}
}

// connSession is one connection's state: the stop channels of running
// races and the per-query mirror solvers. The mutex guards only the
// maps and queues — never a solve, a frame write, or a channel send.
type connSession struct {
	mu      sync.Mutex
	stops   map[uint64]chan struct{}
	queries map[string]*workerQuery
}

// workerQuery is one query's state on a connection: the unrolling of its
// circuit (src for live races, an unroll.Instance made per cold race) and
// the per-strategy mirrors.
// busy serializes races per query — the coordinator never overlaps them,
// so a second race for a busy query is protocol misuse and is rejected
// rather than queued.
type workerQuery struct {
	u       *unroll.Unroller
	step    bool
	src     racer.Source
	mirrors map[string]*mirror
	busy    bool
}

// instance returns a new, empty instance of the query for a cold race.
func (q *workerQuery) instance() *unroll.Instance {
	if q.step {
		return q.u.StepInstance()
	}
	return q.u.Instance()
}

// mirror is one strategy's persistent worker-side solver: the solver with
// its load state (frames held) and the array its guidance is expanded
// over. The solver and the array are made when the mirror first searches.
type mirror struct {
	feed     racer.Feed
	guidance []float64
}

// catchUp is the mirror's load at depth k, on the race goroutine about to
// solve, as racer.Pool's is for its racers: the solver is made at the
// first load and sized ahead by the pool's hint at every one, and the
// attempt's guidance runs — which begin checked cover the depth's scores —
// are expanded over the mirror's one array, replaced by one sized as the
// solver is when it no longer fits.
func (m *mirror) catchUp(k int, frames *racer.DepthFrames, scores int, opts *WireOptions, grow portfolio.Growth) *sat.Solver {
	s := m.feed.Solver
	if s == nil {
		s = new(sat.Solver)
		s.Grow(grow.Vars)
		s.Load(cnf.New(0), opts.toSatOptions())
		m.feed.Solver = s
	} else {
		s.Grow(grow.Vars)
	}
	m.guidance = opts.Guidance.expand(m.guidance, scores, grow.Vars+1)
	return m.feed.CatchUp(k, frames.Frame, m.guidance, opts.SwitchAfterDecisions)
}

func newConnSession() *connSession {
	return &connSession{
		stops:   make(map[uint64]chan struct{}),
		queries: make(map[string]*workerQuery),
	}
}

// register creates the race's stop channel.
func (s *connSession) register(id uint64) <-chan struct{} {
	ch := make(chan struct{})
	s.mu.Lock()
	s.stops[id] = ch
	s.mu.Unlock()
	return ch
}

// cancel closes the race's stop channel and forgets it, if the race is
// still running or has just finished (it no longer looks at the channel).
func (s *connSession) cancel(id uint64) {
	s.mu.Lock()
	ch, ok := s.stops[id]
	if ok {
		delete(s.stops, id)
	}
	s.mu.Unlock()
	if ok {
		close(ch)
	}
}

// cancelAll closes every running race's stop channel (connection
// teardown).
func (s *connSession) cancelAll() {
	s.mu.Lock()
	stops := s.stops
	s.stops = make(map[uint64]chan struct{})
	s.mu.Unlock()
	for _, ch := range stops {
		close(ch)
	}
}

// install makes wc's circuit its query's, with no mirrors; a race still
// running on the old state keeps it until it ends.
func (s *connSession) install(wc *WireCircuit) error {
	u, err := unroll.New(wc.Circuit, wc.Property)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		delete(s.queries, wc.Query)
		return err
	}
	q := &workerQuery{u: u, step: wc.Step, src: u.Delta(), mirrors: make(map[string]*mirror)}
	if wc.Step {
		q.src = u.StepDelta()
	}
	s.queries[wc.Query] = q
	return nil
}

// begin claims the request's query for one race, owned by the caller
// until end: the connection must hold its circuit, the depth-K instance
// must fit unroll's size bound and every attempt's guidance must cover its
// variables.
func (s *connSession) begin(req *RaceRequest) (*workerQuery, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queries[req.Query]
	switch {
	case q == nil:
		return nil, fmt.Errorf("remote: race for query %q, whose circuit this connection does not hold", req.Query)
	case q.busy:
		return nil, fmt.Errorf("remote: query %q already racing", req.Query)
	}
	size := q.src.Size
	if !req.Live {
		size = q.instance().Size
	}
	if !unroll.Fits(req.K, size) {
		return nil, fmt.Errorf("remote: depth %d of query %q is past the bound on an instance's size", req.K, req.Query)
	}
	vars, _, _ := size(req.K)
	for _, a := range req.Attempts {
		if err := a.Opts.Guidance.covers(vars + 1); err != nil {
			return nil, fmt.Errorf("%w (query %q, attempt %s)", err, req.Query, a.Name)
		}
	}
	q.busy = true
	return q, nil
}

// end releases the query claimed by begin.
func (s *connSession) end(q *workerQuery) {
	s.mu.Lock()
	q.busy = false
	s.mu.Unlock()
}

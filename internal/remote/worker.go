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
// its own isolated solver state — the frames of each query and
// per-(query, strategy) persistent mirror solvers, loaded from those
// frames when they are about to search, exactly as racer.Pool loads its
// local racers — so one daemon serves many concurrent sessions, and a
// session's mirrors die with its connection. A Worker is safe for
// concurrent use; Serve and ServeConn may be called from any number of
// goroutines.
type Worker struct {
	opts WorkerOptions
	// afterRace, when non-nil, sees a live race's query state once the race
	// and its exports are done, while the race still owns it (tests).
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
	if w.opts.Metrics != nil {
		fc.stats = wireStats{
			framesSent: w.opts.Metrics.Counter(metricNetFramesSent),
			framesRecv: w.opts.Metrics.Counter(metricNetFramesRecv),
			bytesSent:  w.opts.Metrics.Counter(metricNetBytesSent),
			bytesRecv:  w.opts.Metrics.Counter(metricNetBytesRecv),
		}
	}
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
	var races sync.WaitGroup
	defer races.Wait()
	defer sess.cancelAll()

	var mRaces, mRaceErrs *obs.Counter
	if w.opts.Metrics != nil {
		w.opts.Metrics.Counter(metricWorkerConnections).Inc()
		mRaces = w.opts.Metrics.Counter(metricWorkerRaces)
		mRaceErrs = w.opts.Metrics.Counter(metricWorkerRaceErrors)
	}

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
				sess.unregister(req.ID)
				if err := fc.Send(&Message{Kind: MsgRaceResult, Result: resp}, w.opts.WriteTimeout); err != nil {
					w.logf("%s: race %d response: %v", peer, req.ID, err)
				}
			}()
		case MsgCancel:
			if m.Cancel != nil {
				sess.cancel(m.Cancel.ID)
			}
		case MsgClauses:
			if m.Clauses != nil {
				sess.enqueueClauses(m.Clauses)
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
	if !req.Live {
		attempts := make([]portfolio.Attempt, len(req.Attempts))
		for i, a := range req.Attempts {
			if err := a.Opts.Guidance.covers(req.NumVars + 1); err != nil {
				return &RaceResponse{ID: req.ID, Err: err.Error()}
			}
			attempts[i] = portfolio.Attempt{Name: a.Name, Opts: a.Opts.toSatOptions()}
			attempts[i].Opts.Guidance = a.Opts.Guidance.expand(nil, req.NumVars+1, 0)
		}
		f := &cnf.Formula{NumVars: req.NumVars, Clauses: req.Formula}
		return &RaceResponse{ID: req.ID, Race: portfolio.Race(f, attempts, req.Jobs, stop)}
	}

	q, pending, err := sess.beginLive(req)
	if err != nil {
		return &RaceResponse{ID: req.ID, Err: err.Error()}
	}
	defer sess.endLive(req.Query)

	// The query is marked busy: this goroutine owns its mirrors until
	// endLive, and hands each to at most one race goroutine. Imports are
	// queued for the mirrors of this request at this depth's boundary and
	// go in, with the frames a mirror is missing, when it is about to
	// search (the import contract: it is at rest then).
	k := len(q.history) - 1
	frames := func(d int) *cnf.Formula {
		return &cnf.Formula{NumVars: q.history[d].NumVars, Clauses: q.history[d].Clauses}
	}
	attempts := make([]portfolio.LiveAttempt, len(req.Attempts))
	for i := range req.Attempts {
		a := &req.Attempts[i]
		m := q.mirrors[a.Name]
		if m == nil {
			m = new(mirror)
			q.mirrors[a.Name] = m
		}
		if len(pending) > 0 {
			m.feed.Deliver(k, "", pending)
		}
		attempts[i] = portfolio.LiveAttempt{Name: a.Name, Solver: func() *sat.Solver {
			return m.catchUp(k, frames, &a.Opts, req.Grow)
		}}
	}

	race := portfolio.RaceLive(attempts, req.Assumps, req.Jobs, stop)

	var exported []cnf.Clause
	if req.ExportMaxLen > 0 || req.ExportMaxLBD > 0 {
		for _, a := range req.Attempts {
			m := q.mirrors[a.Name]
			if m.feed.Solver == nil {
				continue
			}
			exported = append(exported, m.feed.Solver.ExportLearned(m.mark, req.ExportMaxLen, req.ExportMaxLBD, req.ExportBudget)...)
			m.mark = m.feed.Solver.NextClauseID()
		}
	}
	if w.afterRace != nil {
		w.afterRace(q)
	}
	return &RaceResponse{ID: req.ID, Race: race, Exported: exported}
}

// connSession is one connection's state: the stop channels of running
// races and the per-query mirror solvers. The mutex guards only the
// maps and queues — never a solve, a frame write, or a channel send.
type connSession struct {
	mu      sync.Mutex
	stops   map[uint64]chan struct{}
	queries map[string]*workerQuery
}

// workerQuery is one instance sequence's mirror state: the full frame
// history (a mirror loads from it when it first gets to search, at
// whatever depth that is), the per-strategy mirrors, and clause imports
// awaiting the next race. busy serializes races per query — the
// coordinator never overlaps them, so a second race for a busy query is
// protocol misuse and is rejected rather than queued.
type workerQuery struct {
	history []WireFrame
	mirrors map[string]*mirror
	pending []cnf.Clause
	busy    bool
}

// mirror is one strategy's persistent worker-side solver: the solver with
// its load state (frames of the history held, imports waiting), the array
// its guidance is expanded over, and the learned-clause export high-water
// mark. The solver and the array are made when the mirror first searches.
type mirror struct {
	feed     racer.Feed
	guidance []float64
	mark     sat.ClauseID
}

// catchUp is the mirror's load at depth k, on the race goroutine about to
// solve, as racer.Pool's is for its racers: the solver is made at the
// first load and sized ahead by the pool's hint at every one, and the
// attempt's guidance runs — which beginLive checked cover depth k — are
// expanded over the mirror's one array, replaced by one sized as the
// solver is when it no longer fits.
func (m *mirror) catchUp(k int, frames func(d int) *cnf.Formula, opts *WireOptions, grow portfolio.Growth) *sat.Solver {
	s := m.feed.Solver
	if s == nil {
		s = new(sat.Solver)
		s.Grow(grow.Vars, grow.Clauses)
		s.Load(cnf.New(0), opts.toSatOptions())
		m.feed.Solver = s
	} else {
		s.Grow(grow.Vars, grow.Clauses)
	}
	n := frames(k).NumVars + 1
	m.guidance = opts.Guidance.expand(m.guidance, n, grow.Vars+1)
	s, _ = m.feed.CatchUp(k, frames, m.guidance, opts.SwitchAfterDecisions)
	return s
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

// unregister removes a finished race; its channel (closed or not) is
// dropped.
func (s *connSession) unregister(id uint64) {
	s.mu.Lock()
	delete(s.stops, id)
	s.mu.Unlock()
}

// cancel closes the race's stop channel, if it is still running.
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
	chans := make([]chan struct{}, 0, len(s.stops))
	for id, ch := range s.stops {
		chans = append(chans, ch)
		delete(s.stops, id)
	}
	s.mu.Unlock()
	for _, ch := range chans {
		close(ch)
	}
}

// enqueueClauses parks a clause payload for import before the query's
// next race.
func (s *connSession) enqueueClauses(p *ClausePayload) {
	s.mu.Lock()
	q := s.queries[p.Query]
	if q == nil {
		q = &workerQuery{mirrors: make(map[string]*mirror)}
		s.queries[p.Query] = q
	}
	q.pending = append(q.pending, p.Clauses...)
	s.mu.Unlock()
}

// beginLive claims the request's query for one race: it validates and
// appends the request's frames to the history, checks that the history
// holds a frame and every attempt's guidance covers the last one's
// variables, takes the pending clause imports, and marks the query busy.
// The returned workerQuery is owned by the caller until endLive.
func (s *connSession) beginLive(req *RaceRequest) (*workerQuery, []cnf.Clause, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queries[req.Query]
	if q == nil {
		q = &workerQuery{mirrors: make(map[string]*mirror)}
		s.queries[req.Query] = q
	}
	if q.busy {
		return nil, nil, fmt.Errorf("remote: query %q already racing", req.Query)
	}
	for _, fr := range req.Frames {
		switch {
		case fr.K < len(q.history):
			// Replayed frame (coordinator reset its mark): already held.
		case fr.K == len(q.history):
			q.history = append(q.history, fr)
		default:
			return nil, nil, fmt.Errorf("remote: frame gap for query %q: got depth %d, have %d frames",
				req.Query, fr.K, len(q.history))
		}
	}
	if len(q.history) == 0 {
		return nil, nil, fmt.Errorf("remote: live race for query %q before its first frame", req.Query)
	}
	scores := q.history[len(q.history)-1].NumVars + 1
	for _, a := range req.Attempts {
		if err := a.Opts.Guidance.covers(scores); err != nil {
			return nil, nil, fmt.Errorf("%w (query %q, attempt %s)", err, req.Query, a.Name)
		}
	}
	pending := q.pending
	q.pending = nil
	q.busy = true
	return q, pending, nil
}

// endLive releases the query claimed by beginLive.
func (s *connSession) endLive(query string) {
	s.mu.Lock()
	if q := s.queries[query]; q != nil {
		q.busy = false
	}
	s.mu.Unlock()
}

package remote

import (
	"fmt"
	"net"
	"sync"
)

// NewLoopback builds an executor whose n workers live in this process,
// each connection a synchronous net.Pipe served by one shared Worker —
// the deterministic no-socket transport the equivalence tests and
// benchmarks run on. Reconnects work (a redial just opens a new pipe to
// the same Worker, whose per-connection mirrors restart empty — the
// same cold-replay a real worker restart causes). Close tears down the
// executor and joins every in-process handler.
func NewLoopback(n int, opts Options, wopts WorkerOptions) (*Executor, error) {
	return newLoopback(n, opts, NewWorker(wopts), nil)
}

// newLoopback is NewLoopback over the given worker, with the coordinator's
// and the worker's end of every connection passed through wrap, when it is
// not nil: the seams a test watches the worker through and puts a hostile
// transport in.
func newLoopback(n int, opts Options, w *Worker, wrap func(coord, worker net.Conn) (net.Conn, net.Conn)) (*Executor, error) {
	if n <= 0 {
		n = 1
	}
	var handlers sync.WaitGroup
	opts.Dial = func(string) (net.Conn, error) {
		coord, worker := net.Pipe()
		if wrap != nil {
			coord, worker = wrap(coord, worker)
		}
		handlers.Add(1)
		go func() {
			defer handlers.Done()
			w.ServeConn(worker)
		}()
		return coord, nil
	}
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("loopback-%d", i)
	}
	e, err := New(addrs, opts)
	if err != nil {
		handlers.Wait()
		return nil, err
	}
	e.onClose = handlers.Wait
	return e, nil
}

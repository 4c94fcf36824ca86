// Remoteportfolio: the distributed portfolio end to end in one process.
// A worker daemon comes up on an ephemeral TCP port — the same code path
// cmd/bmcworker serves — and a coordinator-side remote.Executor plugs
// into an engine session via engine.WithExecutor, so every depth's
// portfolio race ships over the wire: the worker holds warm mirror
// solvers per strategy, races them, and sends back the winning verdict.
// The session neither knows nor cares
// that its races left the process — the verdict matches the all-local
// run exactly.
//
// In production the worker is its own process on another machine:
//
//	bmcworker -listen :9100                      # on each worker host
//	bmc -order=portfolio -incremental -remote host1:9100,host2:9100 x.aag
//
//	go run ./examples/remoteportfolio
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"sort"
	"strings"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/remote"
)

const model = "cnt_w4_t9"

func main() {
	m, ok := bench.ByName(model)
	if !ok {
		log.Fatalf("suite model %s missing", model)
	}

	// The worker daemon. remote.Worker.Serve is what cmd/bmcworker runs;
	// here it lives on a goroutine with an ephemeral port so the example
	// is self-contained and leaves no listener behind.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		remote.NewWorker(remote.WorkerOptions{Name: "example-worker"}).Serve(ln) //nolint:errcheck // ends with listener close
	}()
	addr := ln.Addr().String()
	fmt.Printf("worker listening on %s\n", addr)

	// The coordinator side: remote.New dials and handshakes every worker
	// up front, and the resulting Executor satisfies engine.Executor, so
	// WithExecutor is the only wiring the session needs.
	reg := obs.NewRegistry()
	ex, err := remote.New([]string{addr}, remote.Options{
		Session: "example",
		Metrics: reg,
	})
	if err != nil {
		log.Fatal(err)
	}

	check := func(opts ...engine.Option) *engine.Result {
		opts = append(opts,
			engine.WithPortfolio(nil, 0),
			engine.WithIncremental(),
			engine.WithBudgets(m.MaxDepth, 0))
		sess, err := engine.New(m.Build(), 0, opts...)
		if err != nil {
			log.Fatal(err)
		}
		res, err := sess.Check(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	local := check()
	dist := check(engine.WithExecutor(ex))
	fmt.Printf("\nlocal  verdict: %v at k=%d\nremote verdict: %v at k=%d\n",
		local.Verdict, local.K, dist.Verdict, dist.K)
	if local.Verdict != dist.Verdict || local.K != dist.K {
		log.Fatal("remote run diverged from local — this is a bug")
	}

	// Shut the link and the worker down, then show what crossed the wire.
	ex.Close()
	ln.Close()
	<-served

	fmt.Println("\nwire telemetry:")
	snap := reg.Snapshot()
	names := make([]string, 0, len(snap.Counters))
	for name := range snap.Counters {
		if strings.HasPrefix(name, "net_") || strings.HasPrefix(name, "remote_") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-48s %d\n", name, snap.Counters[name])
	}
}

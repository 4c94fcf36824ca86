// Command bmcworker is the distributed portfolio's worker daemon: it
// listens for bmc coordinators (cmd/bmc -remote=...) and executes their
// races — cold portfolio races from scratch, and warm races on
// per-(connection, query, strategy) persistent mirror solvers loaded, when
// they are about to search, with frames the worker unrolls itself from the
// circuit the coordinator sent, so a worker's solvers carry learned clauses
// across depths exactly like the local warm pool's.
//
//	bmcworker -listen :9100
//	bmc -order=portfolio -incremental -remote host1:9100,host2:9100 design.aag
//
// One daemon serves any number of coordinators concurrently; each
// connection's solver state is isolated and dies with the connection.
// SIGINT/SIGTERM stop the listener and drain the open connections.
//
// -metrics-addr serves the worker's net_*/remote_worker_* counters as
// Prometheus exposition at /metrics while the daemon runs.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/obs"
	"repro/internal/remote"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, sig))
}

// run is main minus the process glue, so tests can drive the daemon
// through its real flag surface and shut it down through sig.
func run(args []string, stdout, stderr io.Writer, sig <-chan os.Signal) int {
	fs := flag.NewFlagSet("bmcworker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen     = fs.String("listen", "127.0.0.1:9100", "address to accept coordinator connections on (port 0 picks a free port)")
		name       = fs.String("name", "", "worker name reported in the handshake (default the listen address)")
		maxFrame   = fs.Int("max-frame-bytes", remote.DefaultMaxFrameBytes, "largest accepted wire frame")
		verbose    = fs.Bool("v", false, "log connection lifecycle and race errors")
		metricAddr = fs.String("metrics-addr", "", "serve /metrics (Prometheus) on this address while running (e.g. :9091)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: bmcworker [flags]")
		fs.PrintDefaults()
		return 2
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(stderr, "bmcworker:", err)
		return 2
	}
	defer ln.Close() //nolint:errcheck // second close after shutdown is a no-op
	if *name == "" {
		*name = ln.Addr().String()
	}

	reg := obs.NewRegistry()
	wopts := remote.WorkerOptions{
		Name:          *name,
		MaxFrameBytes: *maxFrame,
		Metrics:       reg,
	}
	if *verbose {
		logger := log.New(stderr, "bmcworker: ", log.LstdFlags)
		wopts.Logf = logger.Printf
	}

	if *metricAddr != "" {
		mln, err := net.Listen("tcp", *metricAddr)
		if err != nil {
			fmt.Fprintln(stderr, "bmcworker:", err)
			return 2
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			reg.WritePrometheus(w)
		})
		srv := &http.Server{Handler: mux}
		srvDone := make(chan struct{})
		go func() {
			defer close(srvDone)
			srv.Serve(mln) //nolint:errcheck // ErrServerClosed on shutdown
		}()
		defer func() {
			srv.Close() //nolint:errcheck // best-effort teardown
			<-srvDone
		}()
		fmt.Fprintf(stdout, "serving /metrics on %s\n", mln.Addr())
	}

	// The accept loop owns the listener; the signal watcher closes it,
	// which is Serve's shutdown signal. Serve returns only after every
	// connection handler — and through it every race — has finished.
	fmt.Fprintf(stdout, "bmcworker %q listening on %s\n", *name, ln.Addr())
	stopped := make(chan struct{})
	go func() {
		select {
		case s := <-sig:
			fmt.Fprintf(stdout, "bmcworker: %v: draining\n", s)
			ln.Close()
		case <-stopped:
		}
	}()
	err = remote.NewWorker(wopts).Serve(ln)
	close(stopped)
	if err != nil && !isClosedErr(err) {
		fmt.Fprintln(stderr, "bmcworker:", err)
		return 2
	}
	return 0
}

// isClosedErr matches the accept error a deliberate listener close
// produces — the clean-shutdown case.
func isClosedErr(err error) bool {
	return errors.Is(err, net.ErrClosed)
}

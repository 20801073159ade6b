// Command ampcd is the AMPC serving daemon: it runs algorithms once and
// keeps their final stores resident, so point queries — which component is
// vertex v in, what is element i's list rank — are warm O(µs) lookups
// instead of whole-graph recomputations.
//
// Usage:
//
//	ampcd -addr 127.0.0.1:7780
//
// HTTP surface:
//
//	POST   /v1/jobs                 submit {"algo", "graph"|"n"+"edges"|"next", "check", "retain", "eps", "seed"}
//	GET    /v1/jobs                 list all jobs
//	GET    /v1/jobs/{id}            one job's status
//	DELETE /v1/jobs/{id}            cancel a running job / delete a finished one (frees its store)
//	GET    /v1/jobs/{id}/result     summary, labels, telemetry of a finished job
//	GET    /v1/jobs/{id}/query      warm point queries: ?key=3, ?keys=1,2,3, ?u=1&v=2, ?kind=label
//	GET    /v1/jobs/{id}/telemetry  long-poll per-round stats: ?after=N&wait=10s
//	GET    /metrics                 Prometheus text exposition
//	GET    /healthz                 liveness + registered algorithms
//
// A submission's input is a generator spec ("graph") or inline data:
// "n" with "edges", an array of [u, v] rows ([u, v, w] for weighted
// algorithms), or "next", an array of successors (-1 ends a list). Inline
// data is integers only: a row of another width, a fraction, an exponent, a
// leading zero or a null in an integer's place gets a 400. The body is read
// whole, up to 64 MiB (413 beyond), and then decoded in one pass; bytes
// after its JSON object are ignored.
//
// Jobs default to retain=true: the run's final store stays resident until
// the job is deleted. Submitting with "retain": false runs fire-and-forget
// (status and result still served, no /query surface). Either way the run's
// garbage is collected and returned to the OS before the job reads "done",
// so queries are served from the small live heap, not from the run's.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ampc"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:7780", "listen address")
		maxConc = flag.Int("max-concurrent", 0, "max jobs running at once (0 = GOMAXPROCS, negative = unlimited)")
		eps     = flag.Float64("eps", 0.5, "default space exponent: S = n^eps")
		seed    = flag.Uint64("seed", 1, "default random seed")
		workers = flag.Int("workers", 0, "worker goroutines per round (0 = GOMAXPROCS)")
	)
	flag.Parse()

	d := newDaemon(ampc.Options{Epsilon: *eps, Seed: *seed, Workers: *workers}, *maxConc)
	srv := newServer(*addr, d)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("ampcd serving on http://%s (algorithms: %v)", *addr, ampc.Algorithms())

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Print("ampcd shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, err)
	}
	d.close()
}

// readHeaderTimeout bounds how long a connection may take to send its
// request headers, so idle or trickling clients cannot hold connections
// open forever.
const readHeaderTimeout = 10 * time.Second

// newServer returns the daemon's HTTP server on addr.
func newServer(addr string, d *daemon) *http.Server {
	return &http.Server{Addr: addr, Handler: d.mux(), ReadHeaderTimeout: readHeaderTimeout}
}

// Command shardd is one AMPC shard server: it owns whatever store sections
// rpc-backend publishers put to it and answers batched point reads over
// them, speaking the length-prefixed binary protocol documented in
// internal/rpc. A fleet of shardd processes plus `ampcrun -backend rpc
// -servers ...` is the actually-distributed deployment of the runtime:
// every round's store lives on the fleet and every adaptive read crosses
// the network.
//
// Usage:
//
//	shardd -listen 127.0.0.1:7701
//	shardd -listen 127.0.0.1:7702 -fault-latency 5ms -fault-drop 0.01
//	shardd -ping 127.0.0.1:7701        # readiness probe; exits 0 when up
//
// The server is generation-addressed and run-oblivious: concurrent runs
// sharing a fleet never collide (publishers draw a random 64-bit run id),
// and -max-generations bounds the stores resident per run, evicting the
// oldest, as a backstop for clients that die without freeing.
//
// -fault-latency and -fault-drop inject per-request delay and connection
// drops for testing replica failover and timeouts; they are off by default.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ampc/internal/rpc"
)

func main() {
	var (
		listen  = flag.String("listen", "127.0.0.1:7701", "TCP listen address; :0 picks a free port")
		maxGens = flag.Int("max-generations", 0, "store generations kept per run before evicting the oldest (0 = default 6)")
		maxRuns = flag.Int("max-runs", 0, "distinct runs kept before evicting the coldest (0 = default 64)")
		latency = flag.Duration("fault-latency", 0, "inject this delay before every response (fault testing)")
		drop    = flag.Float64("fault-drop", 0, "probability in [0,1] of dropping a request's connection (fault testing)")
		seed    = flag.Int64("fault-seed", 0, "seed for the -fault-drop decision stream; 0 selects the fixed default 1 (never derived from time), negative is an error")
		ping    = flag.String("ping", "", "probe a running shardd at this address and exit (0 = reachable)")
		pingTO  = flag.Duration("ping-timeout", 2*time.Second, "per-attempt timeout for -ping")
		quiet   = flag.Bool("quiet", false, "suppress per-event log lines")
	)
	flag.Parse()

	if *ping != "" {
		if err := rpc.Ping(*ping, *pingTO); err != nil {
			fmt.Fprintf(os.Stderr, "shardd: ping %s: %v\n", *ping, err)
			os.Exit(1)
		}
		return
	}
	if *drop < 0 || *drop > 1 {
		log.Fatalf("shardd: -fault-drop %v outside [0, 1]", *drop)
	}
	if *seed < 0 {
		log.Fatalf("shardd: -fault-seed %d is negative; pass a seed >= 1, or 0 for the fixed default 1", *seed)
	}

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	srv, err := rpc.NewServer(rpc.ServerConfig{
		Addr:          *listen,
		MaxGensPerRun: *maxGens,
		MaxRuns:       *maxRuns,
		FaultLatency:  *latency,
		FaultDrop:     *drop,
		FaultSeed:     *seed,
		Logf:          logf,
	})
	if err != nil {
		log.Fatalf("shardd: %v", err)
	}
	// The resolved address goes to stdout so scripts binding :0 can scrape
	// the port; everything else logs to stderr.
	fmt.Println(srv.Addr())
	log.Printf("shardd: serving on %s", srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("shardd: shutting down")
	if err := srv.Close(); err != nil {
		log.Fatalf("shardd: close: %v", err)
	}
}

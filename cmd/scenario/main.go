// Command scenario runs the chaos grid: each named scenario (scenario.go)
// launches a shard fleet — in-process loopback servers, or real shardd
// processes with -fleet proc — runs its declared workloads through the
// Engine on the rpc backend with chaos actions (kill, restart, pause,
// resume) injected between rounds, and verifies every cell against the
// mem-backend oracle: byte-identical labels, or a clean typed
// backend-unavailable failure for blackout scenarios. It is a correctness
// harness: wall time is printed for orientation and never gated (measure
// with bench/). Exit status 1 when any cell misses its expected outcome.
//
// Usage:
//
//	scenario                                  # every declared scenario
//	scenario restart blackout
//	scenario -scale 0.25 -fleet proc baseline degraded restart
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"
)

func main() {
	var (
		scale   = flag.Float64("scale", 1.0, "multiply scenario workload sizes (CI runs the grid at 0.25)")
		fleet   = flag.String("fleet", "inproc", "shard fleet: inproc (loopback servers in this process) or proc (real shardd processes: SIGKILL/SIGSTOP chaos)")
		timeout = flag.Duration("timeout", 2*time.Minute, "per-cell wall clock limit; hitting it fails the cell (hangs are bugs, not degraded modes)")
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("scenario: ")
	if *fleet != "inproc" && *fleet != "proc" {
		log.Fatalf("unknown -fleet %q (inproc or proc)", *fleet)
	}
	names := flag.Args()
	if len(names) == 0 {
		names = scenarioNames()
	}
	var scenarios []scenario
	for _, name := range names {
		sc, err := planScenario(name, *scale)
		if err != nil {
			log.Fatal(err)
		}
		scenarios = append(scenarios, sc)
	}
	os.Exit(runGrid(scenarios, *fleet, *timeout))
}

// runGrid executes the scenarios in order and returns the process exit
// code: 0 when every cell reached its expected outcome, 1 otherwise.
func runGrid(scenarios []scenario, fleet string, timeout time.Duration) int {
	runner := newScenarioRunner(fleet, ".", timeout)
	defer runner.close()
	failed := 0
	for _, sc := range scenarios {
		fmt.Printf("scenario %-10s fleet=%s servers=%d R=%d  %s\n",
			sc.Name, fleet, sc.Servers, sc.Replication, sc.Description)
		cells, err := runner.run(sc)
		if err != nil {
			log.Printf("%s: %v", sc.Name, err)
			return 1
		}
		for _, cell := range cells {
			l := cell.line
			if cell.failed {
				failed++
			}
			fmt.Printf("  %-14s %-9s n=%-7d workers=%-2d rounds=%-3d wall %8.1fms  chaos=[%s]  %s\n",
				l.Algo, l.Workload, l.N, l.Workers, l.Rounds, l.WallMS,
				strings.Join(l.ChaosActions, " "), l.Outcome)
		}
	}
	if failed > 0 {
		fmt.Printf("scenario: %d cell(s) missed their expected outcome\n", failed)
		return 1
	}
	fmt.Println("scenario: all cells reached their expected outcome")
	return 0
}

package ampc_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"ampc"
)

// readPathConfigs is the full read-path acceptance grid: every backend
// crossed with worker counts 1 and 8.
type readPathConfig struct {
	backend string
	workers int
}

func readPathConfigs() []readPathConfig {
	var cfgs []readPathConfig
	for _, backend := range []string{ampc.BackendMem, ampc.BackendFile, ampc.BackendRPC} {
		for _, workers := range []int{1, 8} {
			cfgs = append(cfgs, readPathConfig{backend, workers})
		}
	}
	return cfgs
}

// segmentBytes reads every serialized segment file under dir, in sorted path
// order, concatenated — the byte-level identity the file backend must keep
// whatever read-path acceleration is switched on.
func segmentBytes(t *testing.T, dir string) []byte {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".seg" {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatalf("no segment files under %s", dir)
	}
	sort.Strings(paths)
	var buf bytes.Buffer
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
	}
	return buf.Bytes()
}

// TestReadPathDifferential is the acceptance gate for the read path: the
// lane schedule, batched store reads and the rpc backend's coalesced
// getBatch frames are all observable only as speed. Every combination of
// backend and worker count must produce byte-identical labels, payloads,
// summaries, query accounting — and, on the file backend, byte-identical
// serialized segments. Runs under -race in CI, which also exercises the
// remote lanes' shared frames and the per-server sender goroutines that
// fill them.
func TestReadPathDifferential(t *testing.T) {
	servers := rpcServers(t)
	r := ampc.NewRNG(6, 2)
	g := ampc.GNM(300, 900, r)
	jobs := []ampc.Job{
		{Algo: "connectivity", Graph: g, Check: true},
		{Algo: "msf", Weighted: ampc.WithRandomWeights(ampc.ConnectedGNM(300, 900, r), r), Check: true},
	}
	for _, job := range jobs {
		job := job
		t.Run(job.Algo, func(t *testing.T) {
			t.Parallel()
			base, basePairs := runBackend(t, job, ampc.Options{Seed: 21, Backend: ampc.BackendMem, Workers: 1})
			var segWant []byte
			for _, cfg := range readPathConfigs() {
				opts := ampc.Options{Seed: 21, Backend: cfg.backend, Workers: cfg.workers}
				var storeDir string
				if cfg.backend == ampc.BackendRPC {
					opts.Servers = servers
					opts.Replication = 2
				}
				if cfg.backend == ampc.BackendFile {
					storeDir = t.TempDir()
					opts.StoreDir = storeDir
				}
				label := fmt.Sprintf("%s/workers=%d", cfg.backend, cfg.workers)
				res, pairs := runBackend(t, job, opts)
				if !reflect.DeepEqual(res.Labels, base.Labels) {
					t.Errorf("%s: labels differ from baseline", label)
				}
				if !reflect.DeepEqual(normalizePayload(res.Payload), normalizePayload(base.Payload)) {
					t.Errorf("%s: payloads differ from baseline", label)
				}
				if res.Summary != base.Summary || res.Check != base.Check {
					t.Errorf("%s: summary/check %q/%v vs %q/%v", label, res.Summary, res.Check, base.Summary, base.Check)
				}
				if !reflect.DeepEqual(pairs, basePairs) {
					t.Errorf("%s: per-round pair counts differ: %v vs %v", label, pairs, basePairs)
				}
				// The schedule must be invisible to the model's cost
				// accounting, not just to the algorithm outputs.
				bt, rt := base.Telemetry, res.Telemetry
				if rt.TotalQueries != bt.TotalQueries || rt.MaxMachineQueries != bt.MaxMachineQueries ||
					rt.TotalWrites != bt.TotalWrites || rt.MaxShardLoad != bt.MaxShardLoad {
					t.Errorf("%s: accounting differs: queries %d/%d maxMachine %d/%d writes %d/%d maxShard %d/%d",
						label, rt.TotalQueries, bt.TotalQueries, rt.MaxMachineQueries, bt.MaxMachineQueries,
						rt.TotalWrites, bt.TotalWrites, rt.MaxShardLoad, bt.MaxShardLoad)
				}
				if cfg.backend == ampc.BackendRPC && rt.RPCFrames == 0 {
					t.Errorf("%s: rpc run reported zero read frames", label)
				}
				// A remote round runs all its machines at once and their
				// reads share frames, whatever the worker count. Measured:
				// 7–10 queries per frame on connectivity, 28–49 on MSF, where
				// one frame per machine read gave 1.3 and 7.4. Connectivity's
				// floor is its local-solve round, in which machine 0 alone
				// makes 119 adaptive reads over ~76 frames.
				if cfg.backend == ampc.BackendRPC && rt.RPCFrames*5 > rt.TotalQueries {
					t.Errorf("%s: %d read frames for %d queries, want at least 5 queries per frame",
						label, rt.RPCFrames, rt.TotalQueries)
				}
				if cfg.backend != ampc.BackendRPC && rt.RPCFrames != 0 {
					t.Errorf("%s: non-rpc run reported %d rpc frames", label, rt.RPCFrames)
				}
				if storeDir != "" {
					seg := segmentBytes(t, storeDir)
					if segWant == nil {
						segWant = seg
					} else if !bytes.Equal(seg, segWant) {
						t.Errorf("%s: serialized segment bytes differ from the first file run", label)
					}
				}
			}
		})
	}
}

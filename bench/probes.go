package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"ampc"
	ampcrt "ampc/internal/ampc"
	"ampc/internal/dds"
	"ampc/internal/rpc"
)

// probeShape is the workload's cluster shape and largest store, taken from
// the traced run's telemetry, so every probe measures a layer at the size
// the workload actually drives it.
type probeShape struct {
	p, s, pairs int
}

func shapeOf(t ampc.Telemetry, in input) probeShape {
	sh := probeShape{p: t.P, s: t.S}
	for _, r := range t.RoundStats {
		if r.Pairs > sh.pairs {
			sh.pairs = r.Pairs
		}
	}
	if sh.pairs == 0 {
		sh.pairs = in.n + in.m
	}
	return sh
}

const (
	probeTag   = 1
	probeBatch = 64
	// probeReads caps the keys a read probe looks up, so probe time stays
	// bounded on the largest stores.
	probeReads = 1 << 19
)

func probeKey(i int) dds.Key { return dds.Key{Tag: probeTag, A: int64(i)} }

// runProbes times calls into each layer's exported functions, one span per
// call, and returns the per-layer probe metrics by name.
func runProbes(tr *tracer, parent int, cfg *config, sh probeShape) (map[string]float64, error) {
	m := make(map[string]float64)
	kvs := make([]dds.KV, sh.pairs)
	for i := range kvs {
		kvs[i] = dds.KV{Key: probeKey(i), Value: dds.Value{A: int64(i), B: ^int64(i)}}
	}
	perPair := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(sh.pairs) }

	// dds: write, freeze, read back, serialize.
	const salt = 0x9E3779B97F4A7C15
	arena := dds.NewArena()
	b := dds.NewBuilder(sh.p)
	b.Prime(sh.p, salt)
	m["dds.write_ns_per_pair"] = perPair(tr.timed("probe:dds.Writer.WriteMany", parent, func() {
		for mach := 0; mach < sh.p; mach++ {
			lo, hi := ampcrt.BlockRange(mach, sh.pairs, sh.p)
			b.Writer(mach).WriteMany(kvs[lo:hi])
		}
	}))
	var store *dds.Store
	m["dds.freeze_ns_per_pair"] = perPair(tr.timed("probe:dds.Builder.FreezeArena", parent, func() {
		store = b.FreezeArena(arena, sh.p, salt)
	}))
	if store.Len() != sh.pairs {
		return nil, fmt.Errorf("probe store holds %d pairs, wrote %d", store.Len(), sh.pairs)
	}

	reads := sh.pairs
	if reads > probeReads {
		reads = probeReads
	}
	reads -= reads % probeBatch
	keys := make([]dds.Key, reads)
	for i, j := range rand.New(rand.NewSource(int64(cfg.seed))).Perm(sh.pairs)[:reads] {
		keys[i] = probeKey(j)
	}
	getMany := func(name string, be dds.BatchGetter) (time.Duration, error) {
		vals, oks := make([]dds.Value, probeBatch), make([]bool, probeBatch)
		missing := 0
		d := tr.timed(name, parent, func() {
			for i := 0; i < len(keys); i += probeBatch {
				be.GetMany(keys[i:i+probeBatch], vals, oks)
				for _, ok := range oks {
					if !ok {
						missing++
					}
				}
			}
		})
		if missing > 0 {
			return 0, fmt.Errorf("%s: %d of %d keys missing", name, missing, len(keys))
		}
		return d, nil
	}
	perKey := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(len(keys)) }
	d, err := getMany("probe:dds.Store.GetMany", store)
	if err != nil {
		return nil, err
	}
	m["dds.getmany_ns_per_key"] = perKey(d)

	segPath := filepath.Join(cfg.scratch, "probe.seg")
	defer os.Remove(segPath)
	var werr error
	m["dds.segment_write_ms"] = ms(tr.timed("probe:dds.WriteSegment", parent, func() {
		_, werr = dds.WriteSegment(store, segPath, nil)
	}))
	if werr != nil {
		return nil, werr
	}
	if fi, err := os.Stat(segPath); err == nil {
		m["dds.segment_bytes_per_pair"] = float64(fi.Size()) / float64(sh.pairs)
	}
	fs, err := dds.OpenSegment(segPath)
	if err != nil {
		return nil, err
	}
	d, err = getMany("probe:dds.FileStore.GetMany", fs)
	fs.Close()
	if err != nil {
		return nil, err
	}
	m["dds.file_getmany_ns_per_key"] = perKey(d)

	// rpc: computed wire volume, then a real put and batched reads against
	// a loopback fleet. Publish takes ownership of the store, so this is
	// its last use.
	sections, err := dds.SegmentSections(dds.AppendSegment(nil, store))
	if err != nil {
		return nil, err
	}
	wire := 0
	for _, sec := range sections {
		wire += len(sec)
	}
	m["rpc.wire_bytes_per_generation"] = float64(wire * fleetReplication)

	fleet, err := rpc.StartFleet(make([]rpc.ServerConfig, fleetServers))
	if err != nil {
		return nil, err
	}
	defer fleet.Close()
	pub := rpc.NewPublisher(rpc.Config{Servers: fleet.Addrs(), Replication: fleetReplication})
	defer pub.Close()
	pub.SetArena(arena)
	var be dds.StoreBackend
	var perr error
	m["rpc.put_ms_per_generation"] = ms(tr.timed("probe:rpc.Publisher.Publish+Barrier", parent, func() {
		if be, perr = pub.Publish(0, store); perr == nil {
			perr = pub.Barrier()
		}
	}))
	if perr != nil {
		return nil, perr
	}
	defer be.Close()
	remote := be.(interface {
		dds.BatchGetter
		ReadErr() error
		ReadFrames() int64
	})
	// The backend single-flights repeated keys, so every batch is fresh
	// keys; a tenth of the local read count keeps the probe short.
	keys = keys[:len(keys)/10-(len(keys)/10)%probeBatch+probeBatch]
	d, err = getMany("probe:rpc.Backend.GetMany", remote)
	if err != nil {
		return nil, err
	}
	if err := remote.ReadErr(); err != nil {
		return nil, err
	}
	if frames := remote.ReadFrames(); frames > 0 {
		m["rpc.getmany_us_per_frame"] = float64(d.Microseconds()) / float64(frames)
	}

	// ampc: an empty round, then rounds that only read. Each mix gets its
	// own runtime so one mix's worker-cache verdict cannot leak into the next.
	var rerr error
	round := func(rt *ampcrt.Runtime, name string, f ampcrt.RoundFunc) time.Duration {
		return tr.timed("probe:ampc.Runtime.Round("+name+")", parent, func() {
			if err := rt.Round(name, f); err != nil && rerr == nil {
				rerr = err
			}
		})
	}
	newRuntime := func() *ampcrt.Runtime {
		return ampcrt.New(ampcrt.Config{P: sh.p, S: sh.s, Workers: cfg.workers, Seed: cfg.seed})
	}
	rt := newRuntime()
	var empty []float64
	for i := 0; i < 15; i++ {
		d := round(rt, "empty", func(*ampcrt.Ctx) error { return nil })
		empty = append(empty, float64(d.Nanoseconds())/1e3)
	}
	q := sh.pairs / sh.p
	if bud := rt.Budget(); q > bud {
		q = bud
	}
	rt.Close()
	m["ampc.round_overhead_us"] = median(empty)

	// Every machine reads q keys: its own block (all fresh: no machine on
	// its worker has fetched them before) or everyone the first block (all
	// repeat: the worker cache holds them after the worker's first machine).
	readMix := func(name string, first func(mach int) int) float64 {
		rt := newRuntime()
		defer rt.Close()
		var per []float64
		for i := 0; i < 3; i++ {
			// The previous round's empty output replaced the store.
			rt.SetInput(kvs[:sh.p*q])
			round(rt, name, func(c *ampcrt.Ctx) error {
				lo := first(c.Machine)
				for k := lo; k < lo+q; k++ {
					if _, ok := c.Read(probeKey(k)); !ok {
						return fmt.Errorf("read probe: key %d missing", k)
					}
				}
				return nil
			})
			if rerr != nil {
				return 0
			}
			st := rt.Stats()[len(rt.Stats())-1]
			per = append(per, float64(st.Execute.Nanoseconds())/float64(st.Queries))
		}
		return median(per)
	}
	if q > 0 {
		m["ampc.read_fresh_ns_per_query"] = readMix("read-fresh", func(mach int) int { return mach * q })
		m["ampc.read_repeat_ns_per_query"] = readMix("read-repeat", func(int) int { return 0 })
	}
	if rerr != nil {
		return nil, rerr
	}
	return m, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

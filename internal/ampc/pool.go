package ampc

import "sync"

// workerPool is a set of long-lived goroutines that execute the lanes of
// every round. Spawning P goroutines per round — the previous design — put
// goroutine creation and scheduler churn on the floor of every algorithm's
// per-round cost; the pool starts Config.Workers goroutines once and stripes
// the P virtual machines over them round after round. It grows, once, to P
// workers the first time a round runs on a store that reports read frames:
// such a round runs one lane per machine, so their remote reads can meet in
// the backend's frames.
//
// Every worker owns a private job channel, which serves two dispatch
// shapes. runWorkers hands worker w a closure that knows it is worker w —
// used for round lanes, where lane w owns machines w, w+lanes, w+2·lanes,
// ... every round. The freeze's insert tasks, each owning a stripe of
// shards, go through runStriped with stable ownership over the pool's
// first stripe workers (Config.Workers, however far the pool has grown):
// worker w always receives the same task, and so the same shards, so a
// shard's slot table and slab stay in the same worker's cache generation
// after generation. Outputs never depend on which worker ran the work.
//
// The workers reference only the pool, never the Runtime, so an abandoned
// Runtime stays collectable: its finalizer closes the pool and the workers
// exit. Call Runtime.Close for deterministic shutdown.
type workerPool struct {
	jobs   []chan func() // one private queue per worker
	stripe int           // runStriped's width: the pool's initial size
	stop   sync.Once
}

// newWorkerPool starts n worker goroutines.
func newWorkerPool(n int) *workerPool {
	p := &workerPool{stripe: n}
	p.grow(n)
	return p
}

// grow starts workers until the pool has at least n. It must not be called
// concurrently with any other pool method.
func (p *workerPool) grow(n int) {
	for len(p.jobs) < n {
		// Capacity 1 lets the driver hand every worker its job without
		// blocking on workers that have not yet come back to receive.
		mine := make(chan func(), 1)
		p.jobs = append(p.jobs, mine)
		go func() {
			for f := range mine {
				f()
			}
		}()
	}
}

// runWorkers hands worker w the call f(w), for w in [0, n), and blocks until
// all n return. The closure knows which worker runs it — the hook round
// lanes build their stable machine-to-lane stripe on. n must not exceed the
// pool size.
func (p *workerPool) runWorkers(n int, f func(w int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for w := 0; w < n; w++ {
		w := w
		p.jobs[w] <- func() {
			defer wg.Done()
			f(w)
		}
	}
	wg.Wait()
}

// runStriped executes f(0..n-1) with stable worker ownership: index i always
// runs on worker i mod w, where w = min(stripe, n). For a fixed n — the
// shard count is fixed for a runtime's lifetime — the index-to-worker map
// never changes across calls, which is what keeps a shard's memory hot in
// one worker's cache across rounds. Must not be called concurrently with
// itself or with runWorkers.
func (p *workerPool) runStriped(n int, f func(i int)) {
	w := min(p.stripe, n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		k := k
		p.jobs[k] <- func() {
			defer wg.Done()
			for i := k; i < n; i += w {
				f(i)
			}
		}
	}
	wg.Wait()
}

// close releases the workers. Idempotent; no other method may be called
// afterwards.
func (p *workerPool) close() {
	p.stop.Do(func() {
		for _, c := range p.jobs {
			close(c)
		}
	})
}

package core

import (
	"context"
	"fmt"
	"sync"

	"ampc/internal/ampc"
	"ampc/internal/dds"
	"ampc/internal/graph"
)

// The §5 truncated query process, shared by MIS, maximal matching and greedy
// coloring. All three fix a random permutation π over their elements
// (vertices, or edges for matching) and compute a function f(x, π) that
// depends only on the elements ranked before x among x's neighbors, so the
// same machinery serves them: every round each machine explores, for the
// unsettled elements it owns, the relevant earlier part of the neighborhood
// — published once, already ordered by π with the ranks inline — recursing
// until the visit capacity or its query budget runs out. What it determines
// it publishes as a status record; the master folds those back, and elements
// left unknown retry next iteration against the statuses settled so far.

// publishRanked is MIS's and coloring's first round: it publishes g ranked
// by pi (graph.Ranked) into the static store, machine m writing block m of
// the records, emitted straight from the rank-ordered lists
// (ampc.EmitStatic): the master never holds the pair list and no writer
// buffers it. The store is what AddStatic of graph.EncodeRanked would make.
func publishRanked(rt *ampc.Runtime, name string, g *graph.Graph, pi []int) error {
	rk := graph.NewRanked(g, pi)
	return rt.EmitStatic(name, rk.Records(), rk.Emit)
}

// queryReserve is the slack a machine keeps unspent in its query budget so a
// read never trips ErrBudget; running low is treated as truncation.
const queryReserve = 8

// settler is the driver's half of a query process over the ids [0, n):
// state[id] is 0 while id is unsettled and otherwise its status, the value
// published under (tag, id, 0) and carried forward every iteration.
type settler struct {
	name  string // round-name prefix
	tag   uint8
	state []int32
}

// run iterates rounds until every id is settled and returns the iteration
// count (Lemma 5.2 bounds it by O(1/ε) w.h.p.). eval runs the truncated
// query process for one unsettled id the machine owns, returning its status
// or 0; prune, if not nil, is the master's removal rule, applied to state
// after each fold-back.
func (s *settler) run(ctx context.Context, rt *ampc.Runtime, opts Options, driver rngShuffler, eval func(q *queryMachine, id int) int32, prune func()) (int, error) {
	n := len(s.state)
	order := make([]int32, n)
	pending := make([]int32, n) // the unsettled ids, ascending
	for i := range order {
		order[i], pending[i] = int32(i), int32(i)
	}
	rb := newReadback(opts.Workers)
	var pool machinePool
	maxIters := 8*shrinkIterations(opts.Epsilon) + 32 // generous safety cap
	iters := 0
	for len(pending) > 0 {
		if err := ctx.Err(); err != nil {
			return iters, err
		}
		if iters++; iters > maxIters {
			return iters, fmt.Errorf("core: %s failed to settle after %d iterations (%d left)", s.name, maxIters, len(pending))
		}
		driver.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })

		err := rt.Round(fmt.Sprintf("%s-iter-%d", s.name, iters), func(ctx *ampc.Ctx) error {
			lo, hi := ampc.BlockRange(ctx.Machine, n, ctx.P)
			q := pool.get(ctx, s.tag, n, iters > 1)
			defer pool.put(q)
			// Carry forward the settled statuses of the owned ids, then run
			// the query process for the unsettled ones.
			for _, id := range order[lo:hi] {
				if st := s.state[id]; st != 0 {
					q.publish(int(id), st)
				}
			}
			for _, id := range order[lo:hi] {
				if s.state[id] == 0 {
					q.capacity = ctx.S // the paper's per-element visit cap c
					eval(q, int(id))
				}
			}
			// The machine's whole round output in one batched write.
			ctx.WriteMany(q.out)
			return nil
		})
		if err != nil {
			return iters, err
		}
		// Fold back the statuses the round published for the pending ids; an
		// id without one stays unsettled.
		err = rb.perVertex(rt.Store(), s.tag, "", pending, func(i int, v dds.Value) {
			s.state[pending[i]] = int32(v.A)
		})
		if err != nil {
			return iters, err
		}
		if prune != nil {
			prune()
		}
		live := pending[:0]
		for _, id := range pending {
			if s.state[id] == 0 {
				live = append(live, id)
			}
		}
		pending = live
	}
	return iters, nil
}

// queryMachine is one machine's working set for an iteration round: the memo
// of statuses it has determined or read, its buffered output and, for
// coloring, the stack of color sets. The round's machines draw it from a
// pool, so a run allocates one per concurrently running machine rather than
// one per machine.
type queryMachine struct {
	ctx      *ampc.Ctx
	tag      uint8
	prior    bool // an earlier iteration ran, so the store may hold statuses
	capacity int  // visits left to the owned id being evaluated
	memo     stampMemo
	out      []dds.KV
	used     []bool
}

func (q *queryMachine) low() bool { return q.ctx.Remaining() <= queryReserve }

// readStatic reads the static store, or reports a truncation (ok = false)
// when the machine's budget is down to the reserve.
func (q *queryMachine) readStatic(k dds.Key) (dds.Value, bool) {
	if q.low() {
		return dds.Value{}, false
	}
	return q.ctx.ReadStatic(k)
}

// enter opens a visit to id. It reports done with id's status when that is
// already known — determined or read earlier by this machine, or settled in
// a previous iteration, which is authoritative (the first iteration has none
// to read) — and done with status 0 when the budget or the visit capacity
// ran out. Otherwise the caller explores id's neighborhood. Only that
// exploration is a visit Algorithm 5's capacity counts: a settled id has left
// the graph, and charging it would strand any id with more than S settled
// earlier neighbors.
func (q *queryMachine) enter(id int) (status int32, done bool) {
	if s, ok := q.memo.get(id); ok {
		return s, true
	}
	if q.low() {
		return 0, true
	}
	if q.prior {
		if s, ok := q.ctx.Read(dds.Key{Tag: q.tag, A: int64(id)}); ok {
			q.memo.set(id, int32(s.A))
			return int32(s.A), true
		}
	}
	if q.capacity <= 0 {
		return 0, true
	}
	q.capacity--
	return 0, false
}

// settle records the status this machine determined for id and returns it.
// f(id, π) is a function of the graph and π alone, so a locally determined
// status is globally consistent and can be published.
func (q *queryMachine) settle(id int, status int32) int32 {
	q.memo.set(id, status)
	q.publish(id, status)
	return status
}

func (q *queryMachine) publish(id int, status int32) {
	q.out = append(q.out, dds.KV{Key: dds.Key{Tag: q.tag, A: int64(id)}, Value: dds.Value{A: int64(status)}})
}

// stampMemo is a dense memo over the ids [0, n) that empties in O(1): an
// entry counts only if it carries the current stamp, and reset moves on to
// the next one.
type stampMemo struct {
	stamp uint32
	cells []memoCell
}

type memoCell struct {
	stamp uint32
	val   int32
}

func (m *stampMemo) reset(n int) {
	if len(m.cells) != n {
		m.cells, m.stamp = make([]memoCell, n), 0
	}
	if m.stamp++; m.stamp == 0 {
		// Wraparound: cells stamped 2^32 resets ago would read as current.
		clear(m.cells)
		m.stamp = 1
	}
}

func (m *stampMemo) get(id int) (int32, bool) {
	c := m.cells[id]
	return c.val, c.stamp == m.stamp
}

func (m *stampMemo) set(id int, val int32) { m.cells[id] = memoCell{m.stamp, val} }

// machinePool recycles queryMachines across the machines of a run. It holds
// as many as ever ran at once: Workers, or up to P on a remote round, whose
// machines all run together.
type machinePool struct {
	mu   sync.Mutex
	free []*queryMachine
}

// get returns a queryMachine with an empty memo over n ids, bound to ctx.
func (p *machinePool) get(ctx *ampc.Ctx, tag uint8, n int, prior bool) *queryMachine {
	p.mu.Lock()
	var q *queryMachine
	if last := len(p.free) - 1; last >= 0 {
		q, p.free = p.free[last], p.free[:last]
	} else {
		q = &queryMachine{}
	}
	p.mu.Unlock()
	q.ctx, q.tag, q.prior, q.out, q.used = ctx, tag, prior, q.out[:0], q.used[:0]
	q.memo.reset(n)
	return q
}

func (p *machinePool) put(q *queryMachine) {
	q.ctx = nil
	p.mu.Lock()
	p.free = append(p.free, q)
	p.mu.Unlock()
}

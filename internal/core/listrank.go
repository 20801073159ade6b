package core

import (
	"context"
	"fmt"
	"math"

	"ampc/internal/ampc"
	"ampc/internal/dds"
	"ampc/internal/graph"
)

// DDS tags private to list ranking.
const (
	tagListNext = graph.TagAlgoBase + 8  // (tag, v, level) -> (next or -1, hop weight)
	tagListMark = graph.TagAlgoBase + 9  // (tag, v, level) -> (1, 0) if alive at level+1
	tagListD    = graph.TagAlgoBase + 10 // (tag, v, 0) -> (rank, 0)
)

// ListRankingResult reports the outcome and cost of Algorithm 11.
type ListRankingResult struct {
	// Rank[v] is the number of elements preceding v in its list (the head
	// of each list has rank 0).
	Rank []int
	// Store is the retained final store holding the ranks under the
	// serving tag, populated only when Options.RetainStore was set: v's
	// rank is Get(ServeKey(v)). The caller owns its Close.
	Store dds.StoreBackend
	// Telemetry is the measured cost.
	Telemetry Telemetry
}

// listLevel is one contraction level's state, driver side: alive elements,
// successor, hop weight.
type listLevel struct {
	alive  []int
	nxt    map[int]int
	weight map[int]int64
}

// readListLevel is the master's read-back of contracted level r: the hop
// record (next sample or -1, summed weight) the contract round wrote for
// every sample. A sample without one is an error — folding the absent value
// in would splice the list into element 0 with weight 0.
func readListLevel(store dds.StoreBackend, samples []int, r int) (listLevel, error) {
	lv := listLevel{alive: samples, nxt: make(map[int]int, len(samples)), weight: make(map[int]int64, len(samples))}
	for _, s := range samples {
		v, ok := store.Get(dds.Key{Tag: tagListNext, A: int64(s), B: int64(r)})
		if !ok {
			return listLevel{}, missingRecord(store, "list hop", int64(s), int64(r))
		}
		lv.nxt[s] = int(v.A)
		if v.A != -1 {
			lv.weight[s] = v.B
		}
	}
	return lv, nil
}

// ListRanking ranks the elements of one or more disjoint linked lists in
// O(1/ε) rounds (Algorithm 11, Theorem 6). next[v] is v's successor, or -1
// at a tail; every element must belong to exactly one acyclic chain.
//
// The algorithm samples elements with probability N^{-ε/2} (heads always
// included), contracts the runs between consecutive samples into weighted
// hops by adaptive forward traversal, recurses until the lists are short,
// and then unwinds: ranks flow from each level's samples to the elements
// they absorbed, one round per level.
func ListRanking(ctx context.Context, next []int, opts Options) (ListRankingResult, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return ListRankingResult{}, err
	}
	n := len(next)
	if n == 0 {
		return ListRankingResult{Rank: nil}, nil
	}
	heads, err := listHeads(next)
	if err != nil {
		return ListRankingResult{}, err
	}
	rt := opts.newRuntime(ctx, n, n)
	defer rt.Close()
	driver := opts.driverRNG(3)

	cur := listLevel{alive: make([]int, 0, n), nxt: make(map[int]int, n), weight: make(map[int]int64, n)}
	for v := 0; v < n; v++ {
		cur.alive = append(cur.alive, v)
		cur.nxt[v] = next[v]
		if next[v] != -1 {
			cur.weight[v] = 1
		}
	}
	isHead := make(map[int]bool, len(heads))
	for _, h := range heads {
		isHead[h] = true
	}

	sampleP := math.Pow(float64(n), -opts.Epsilon/2)
	maxLevels := int(math.Ceil(2*(1-opts.Epsilon)/opts.Epsilon)) + 1
	stopAt := rt.Config().S

	levels := []listLevel{cur}
	for r := 0; r < maxLevels && len(levels[len(levels)-1].alive) > stopAt; r++ {
		lv := levels[len(levels)-1]

		// Choose the next level's samples: heads always survive.
		samples := make([]int, 0)
		sampled := make(map[int]bool)
		for _, v := range lv.alive {
			if isHead[v] || driver.Bernoulli(sampleP) {
				samples = append(samples, v)
				sampled[v] = true
			}
		}

		// Publish this level's pointers, weights, and marks (static: the
		// unwind phase re-reads every level).
		pairs := make([]dds.KV, 0, 2*len(lv.alive))
		for _, v := range lv.alive {
			pairs = append(pairs, dds.KV{
				Key:   dds.Key{Tag: tagListNext, A: int64(v), B: int64(r)},
				Value: dds.Value{A: int64(lv.nxt[v]), B: lv.weight[v]},
			})
			if sampled[v] {
				pairs = append(pairs, dds.KV{
					Key:   dds.Key{Tag: tagListMark, A: int64(v), B: int64(r)},
					Value: dds.Value{A: 1},
				})
			}
		}
		if err := rt.AddStatic(fmt.Sprintf("list-publish-%d", r), pairs); err != nil {
			return ListRankingResult{}, err
		}

		// Contract: each sample walks forward to the next sample (or the
		// tail), summing hop weights adaptively.
		shuffled := append([]int(nil), samples...)
		driver.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		err := rt.Round(fmt.Sprintf("list-contract-%d", r), func(ctx *ampc.Ctx) error {
			lo, hi := ampc.BlockRange(ctx.Machine, len(shuffled), ctx.P)
			hops := make([]dds.KV, 0, hi-lo)
			for _, s := range shuffled[lo:hi] {
				end, acc, err := listWalk(ctx, s, r, nil)
				if err != nil {
					return err
				}
				hops = append(hops, dds.KV{
					Key:   dds.Key{Tag: tagListNext, A: int64(s), B: int64(r + 1)},
					Value: dds.Value{A: int64(end), B: acc},
				})
			}
			ctx.WriteMany(hops)
			return ctx.Err()
		})
		if err != nil {
			return ListRankingResult{}, err
		}

		nextLv, err := readListLevel(rt.Store(), samples, r+1)
		if err != nil {
			return ListRankingResult{}, err
		}
		levels = append(levels, nextLv)
	}

	// Final walk: at the coarsest level, walk each list from its head and
	// assign exact ranks to every surviving element.
	coarsest := len(levels) - 1
	coarsestPairs := make([]dds.KV, 0, 2*len(levels[coarsest].alive))
	lv := levels[coarsest]
	for _, v := range lv.alive {
		coarsestPairs = append(coarsestPairs, dds.KV{
			Key:   dds.Key{Tag: tagListNext, A: int64(v), B: int64(coarsest)},
			Value: dds.Value{A: int64(lv.nxt[v]), B: lv.weight[v]},
		})
	}
	if err := rt.AddStatic("list-publish-coarsest", coarsestPairs); err != nil {
		return ListRankingResult{}, err
	}
	shuffledHeads := append([]int(nil), heads...)
	driver.Shuffle(len(shuffledHeads), func(i, j int) {
		shuffledHeads[i], shuffledHeads[j] = shuffledHeads[j], shuffledHeads[i]
	})
	err = rt.Round("list-final-walk", func(ctx *ampc.Ctx) error {
		lo, hi := ampc.BlockRange(ctx.Machine, len(shuffledHeads), ctx.P)
		var ranks []dds.KV // rank writes batched per head walk
		for _, h := range shuffledHeads[lo:hi] {
			d := int64(0)
			cur := h
			ranks = ranks[:0]
			for cur != -1 {
				ranks = append(ranks, dds.KV{Key: dds.Key{Tag: tagListD, A: int64(cur)}, Value: dds.Value{A: d}})
				v, ok := ctx.ReadStatic(dds.Key{Tag: tagListNext, A: int64(cur), B: int64(coarsest)})
				if !ok {
					return fmt.Errorf("core: missing coarsest pointer for %d (err %v)", cur, ctx.Err())
				}
				d += v.B
				cur = int(v.A)
			}
			ctx.WriteMany(ranks)
		}
		return ctx.Err()
	})
	if err != nil {
		return ListRankingResult{}, err
	}

	// Unwind: level by level, samples push exact ranks onto the elements
	// they absorbed.
	for r := coarsest - 1; r >= 0; r-- {
		walkers := levels[r+1].alive
		shuffledW := append([]int(nil), walkers...)
		driver.Shuffle(len(shuffledW), func(i, j int) { shuffledW[i], shuffledW[j] = shuffledW[j], shuffledW[i] })
		err := rt.Round(fmt.Sprintf("list-unwind-%d", r), func(ctx *ampc.Ctx) error {
			lo, hi := ampc.BlockRange(ctx.Machine, len(shuffledW), ctx.P)
			var ranks []dds.KV // rank writes batched per walker
			var base int64     // the current walker's rank
			absorb := func(u int, acc int64) {
				ranks = append(ranks, dds.KV{Key: dds.Key{Tag: tagListD, A: int64(u)}, Value: dds.Value{A: base + acc}})
			}
			for _, s := range shuffledW[lo:hi] {
				dv, ok := ctx.Read(dds.Key{Tag: tagListD, A: int64(s)})
				if !ok {
					return fmt.Errorf("core: missing rank for walker %d (err %v)", s, ctx.Err())
				}
				// Carry the walker's own rank forward, then rank the
				// absorbed run after it.
				base = dv.A
				ranks = append(ranks[:0], dds.KV{Key: dds.Key{Tag: tagListD, A: int64(s)}, Value: dds.Value{A: base}})
				if _, _, err := listWalk(ctx, s, r, absorb); err != nil {
					return err
				}
				ctx.WriteMany(ranks)
			}
			return ctx.Err()
		})
		if err != nil {
			return ListRankingResult{}, err
		}
	}

	ranks, err := readRanks(rt.Store(), n)
	if err != nil {
		return ListRankingResult{}, err
	}
	res := ListRankingResult{Rank: ranks}
	if opts.RetainStore {
		store, err := retainServeStore(rt, ranks)
		if err != nil {
			return ListRankingResult{}, err
		}
		res.Store = store
	}
	res.Telemetry = telemetryFrom(rt, coarsest)
	return res, nil
}

// readRanks is the master's read of the final ranks: every element must
// have one, so a miss is a typed missing-record error.
func readRanks(store dds.StoreBackend, n int) ([]int, error) {
	ranks := make([]int, n)
	for v := range ranks {
		d, ok := store.Get(dds.Key{Tag: tagListD, A: int64(v)})
		if !ok {
			return nil, missingRecord(store, "list rank", int64(v), 0)
		}
		ranks[v] = int(d.A)
	}
	return ranks, nil
}

// listWalk walks forward from sample s along level-r pointers until the
// next marked element or the tail, returning the stopping element (-1 for
// tail) and the accumulated weight; absorbed, when not nil, gets every
// unmarked element passed on the way with the weight accumulated up to it.
// Each pointer jump fetches the next element's mark and successor together
// in one batched static read: the successor doubles as the prefetch for
// the following hop, at the cost of one unused read at the hop that ends
// the walk.
func listWalk(ctx *ampc.Ctx, s, r int, absorbed func(u int, acc int64)) (int, int64, error) {
	acc := int64(0)
	v, ok := ctx.ReadStatic(dds.Key{Tag: tagListNext, A: int64(s), B: int64(r)})
	if !ok {
		return 0, 0, fmt.Errorf("core: walk fell off the list at %d (err %v)", s, ctx.Err())
	}
	var pair [2]dds.Key
	var res []ampc.ValueOK
	for {
		nxt := int(v.A)
		if nxt == -1 {
			return -1, acc, nil
		}
		acc += v.B
		pair[0] = dds.Key{Tag: tagListMark, A: int64(nxt), B: int64(r)}
		pair[1] = dds.Key{Tag: tagListNext, A: int64(nxt), B: int64(r)}
		res = ctx.ReadStaticMany(pair[:], res[:0])
		if res[0].OK {
			return nxt, acc, nil
		}
		if absorbed != nil {
			absorbed(nxt, acc)
		}
		if !res[1].OK {
			return 0, 0, fmt.Errorf("core: walk fell off the list at %d (err %v)", nxt, ctx.Err())
		}
		v = res[1].Value
	}
}

// listHeads validates that next describes disjoint acyclic chains and
// returns the heads (elements with no predecessor).
func listHeads(next []int) ([]int, error) {
	n := len(next)
	indeg := make([]int, n)
	for v, u := range next {
		if u == v {
			return nil, fmt.Errorf("core: list element %d points to itself", v)
		}
		if u != -1 {
			if u < 0 || u >= n {
				return nil, fmt.Errorf("core: list pointer %d -> %d out of range", v, u)
			}
			indeg[u]++
			if indeg[u] > 1 {
				return nil, fmt.Errorf("core: element %d has two predecessors", u)
			}
		}
	}
	var heads []int
	covered := 0
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			heads = append(heads, v)
			for cur := v; cur != -1; cur = next[cur] {
				covered++
				if covered > n {
					return nil, fmt.Errorf("core: list contains a cycle")
				}
			}
		}
	}
	if covered != n {
		return nil, fmt.Errorf("core: list contains a cycle (%d of %d elements reachable from heads)", covered, n)
	}
	return heads, nil
}

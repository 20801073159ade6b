package core

import (
	"fmt"

	"ampc/internal/ampc"
	"ampc/internal/dds"
	"ampc/internal/graph"
)

// tagServe is the DDS tag of the serving labels: when Options.RetainStore is
// set, the supporting algorithms end their run with one extra serve-publish
// round writing (tagServe, v) -> label for every element, so the retained
// final store holds exactly the queryable output under one tag: a lookup is
// one Get(ServeKey(v)), with no per-algorithm tag knowledge.
const tagServe = graph.TagAlgoBase + 50

// ServeKey returns the retained-store key of element v's serving label.
func ServeKey(v int) dds.Key { return dds.Key{Tag: tagServe, A: int64(v)} }

// publishServeLabels runs the serve-publish round: the labels are
// block-partitioned across machines and written through the same budget-safe
// bulk path every data-publication round uses, so the extra round obeys the
// model like any other.
func publishServeLabels(rt *ampc.Runtime, labels []int) error {
	pairs := make([]dds.KV, len(labels))
	for v, l := range labels {
		pairs[v] = dds.KV{Key: ServeKey(v), Value: dds.Value{A: int64(l)}}
	}
	return rt.Round("serve-publish", func(ctx *ampc.Ctx) error {
		lo, hi := ampc.BlockRange(ctx.Machine, len(pairs), ctx.P)
		ctx.WriteMany(pairs[lo:hi])
		return ctx.Err()
	})
}

// retainServeStore publishes the serving labels, shuts the runtime down, and
// returns the detached final store. The runtime's deferred Close becomes a
// no-op; the caller owns the returned store's Close.
func retainServeStore(rt *ampc.Runtime, labels []int) (dds.StoreBackend, error) {
	if err := publishServeLabels(rt, labels); err != nil {
		return nil, err
	}
	if err := rt.Close(); err != nil {
		return nil, err
	}
	store := rt.FinalStore()
	if store == nil {
		return nil, fmt.Errorf("core: runtime did not retain the final store")
	}
	return store, nil
}

// forestComponents derives the connectivity labeling a forest induces:
// canonical minimum vertex id per component, matching the convention of the
// other labelings.
func forestComponents(n int, edges []graph.WeightedEdge) []int {
	dsu := graph.NewDSU(n)
	for _, e := range edges {
		dsu.Union(e.U, e.V)
	}
	min := make(map[int]int)
	for v := 0; v < n; v++ {
		r := dsu.Find(v)
		if cur, ok := min[r]; !ok || v < cur {
			min[r] = v
		}
	}
	labels := make([]int, n)
	for v := 0; v < n; v++ {
		labels[v] = min[dsu.Find(v)]
	}
	return labels
}

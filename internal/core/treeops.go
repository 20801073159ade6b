package core

import (
	"context"
	"fmt"
)

// Tree-property algorithms over a rooted forest (§8.1): subtree sizes
// (Lemma 8.7) and preorder numbering (Lemma 8.8), both derived from
// weighted prefix sums over the Euler sequence. The prefix-sum step is a
// standard MPC primitive (the paper implements it with sorting), so it runs
// master-side; all round cost is in the RootForest/ListRanking call that
// produced the ranks.

// TreeProps holds per-vertex properties of a rooted forest.
type TreeProps struct {
	// Size[v] is the number of vertices in v's subtree (including v).
	Size []int
	// Pre[v] is v's preorder number within its tree, 1-based (roots get 1).
	Pre []int
	// In and Out delimit v's subtree as dart-rank positions: the darts of
	// v's subtree are exactly those with In[v] <= rank <= Out[v] (roots
	// span their whole tour).
	In, Out []int
}

// ComputeTreeProps derives subtree sizes and preorder numbers from a rooted
// forest. For non-root v, In[v]/Out[v] are the tour ranks of the parent
// dart (p(v) -> v) and its twin.
func ComputeTreeProps(rf *RootedForest) (*TreeProps, error) {
	n := len(rf.Parent)
	et := rf.Tour
	nd := len(rf.DartRank)

	// prefix[r+1] = number of forward darts among tour positions 0..r of
	// the corresponding tree. Tour ranks restart per tree, so build the
	// prefix per tree over its rank-ordered darts.
	// First group darts by tree root and order them by rank.
	byRank := make(map[int][]int) // root -> dart at each rank
	for d := 0; d < nd; d++ {
		tail, _ := et.endpoints(d)
		r := rf.Root[tail]
		lst := byRank[r]
		for len(lst) <= rf.DartRank[d] {
			lst = append(lst, -1)
		}
		lst[rf.DartRank[d]] = d
		byRank[r] = lst
	}
	prefix := make(map[int][]int) // root -> prefix array (len = #darts+1)
	for r, lst := range byRank {
		pf := make([]int, len(lst)+1)
		for i, d := range lst {
			if d == -1 {
				return nil, fmt.Errorf("core: tour of root %d has a rank gap at %d", r, i)
			}
			pf[i+1] = pf[i]
			if IsForward(rf.DartRank, d) {
				pf[i+1]++
			}
		}
		prefix[r] = pf
	}

	props := &TreeProps{
		Size: make([]int, n),
		Pre:  make([]int, n),
		In:   make([]int, n),
		Out:  make([]int, n),
	}
	for v := 0; v < n; v++ {
		if rf.Parent[v] == v {
			// Root: subtree is the whole tree. A single-vertex tree has no
			// darts and therefore no prefix array.
			props.Pre[v] = 1
			props.In[v] = 0
			pf, hasDarts := prefix[v]
			if !hasDarts {
				props.Size[v] = 1
				props.Out[v] = -1
				continue
			}
			treeDarts := len(pf) - 1
			props.Size[v] = pf[treeDarts] + 1 // forward darts discover all non-roots
			props.Out[v] = treeDarts - 1
			continue
		}
		// Non-root: the parent dart (p(v) -> v) is the forward dart of its
		// edge; its twin closes the subtree.
		pd := parentDart(rf, v)
		in := rf.DartRank[pd]
		out := rf.DartRank[Twin(pd)]
		if out < in {
			return nil, fmt.Errorf("core: dart ranks inverted for vertex %d", v)
		}
		pf := prefix[rf.Root[v]]
		props.In[v] = in
		props.Out[v] = out
		// Forward darts in [in, out] discover exactly subtree(v).
		props.Size[v] = pf[out+1] - pf[in]
		// Preorder: root is 1; v is discovered by the (pf[in+1])-th forward
		// dart, so its preorder number is that count plus one.
		props.Pre[v] = pf[in+1] + 1
	}
	return props, nil
}

// SubtreeAggregates computes, for every vertex v of a rooted forest, the
// minimum and maximum of values over v's subtree (Lemma 8.9's subtree
// min/max): per-tree preorder numbers are globalized so every subtree is a
// contiguous interval, a sparse table over the interval array is published
// to the DDS, and one AMPC round answers every vertex's two range queries
// in O(1) budgeted reads each. The telemetry covers the whole call.
func SubtreeAggregates(ctx context.Context, rf *RootedForest, values []int64, opts Options) (min, max []int64, tel Telemetry, err error) {
	pl := newPipeline()
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, nil, Telemetry{}, err
	}
	n := len(rf.Parent)
	if len(values) != n {
		return nil, nil, Telemetry{}, fmt.Errorf("core: %d values for %d vertices", len(values), n)
	}
	props, err := ComputeTreeProps(rf)
	if err != nil {
		return nil, nil, Telemetry{}, err
	}

	// Globalize the per-tree preorder numbers.
	base := make(map[int]int)
	offset := 0
	for v := 0; v < n; v++ {
		r := rf.Root[v]
		if _, ok := base[r]; !ok {
			base[r] = offset
			offset += props.Size[r]
		}
	}
	gPre := make([]int, n)
	arr := make([]int64, n)
	for v := 0; v < n; v++ {
		gPre[v] = base[rf.Root[v]] + props.Pre[v]
		arr[gPre[v]-1] = values[v]
	}

	g := rf.Tour.g
	min, max, tel, err = subtreeExtremes(ctx, g, arr, arr, gPre, props, opts)
	if err != nil {
		return nil, nil, Telemetry{}, err
	}
	pl.add(tel)
	return min, max, pl.telemetry(), nil
}

// parentDart returns the dart (parent(v) -> v) for non-root v.
func parentDart(rf *RootedForest, v int) int {
	et := rf.Tour
	p := rf.Parent[v]
	ns := et.g.Neighbors(p)
	for i, u := range ns {
		if u == v {
			return et.dartID(p, i)
		}
	}
	panic(fmt.Sprintf("core: parent edge (%d,%d) missing", p, v))
}

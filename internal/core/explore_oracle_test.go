package core

import (
	"fmt"
	"math/bits"

	"ampc/internal/ampc"
	"ampc/internal/dds"
)

// The sequential Algorithm 6 exploration that the lock-step blockBFS
// replaced, kept as its oracle: each vertex's budgeted BFS runs to the end
// before the next one starts, so every read is its own dependent step.

// increaseDegreesSequential is increaseDegrees over bfsExplore: the same
// round, records and charged queries, with one read chain per vertex.
func increaseDegreesSequential(rt *ampc.Runtime, verts []int32, d int, phase int) error {
	return rt.Round(fmt.Sprintf("conn-increase-%d", phase), func(ctx *ampc.Ctx) error {
		lo, hi := ampc.BlockRange(ctx.Machine, len(verts), ctx.P)
		var out []dds.KV // per-vertex batch, reused across the machine's block
		var st bfsScratch
		for _, v := range verts[lo:hi] {
			found, whole, err := bfsExplore(ctx, &st, int(v), d)
			if err != nil {
				return err
			}
			w := int64(0)
			if whole {
				w = 1
			}
			out = append(out[:0], dds.KV{
				Key:   dds.Key{Tag: tagConnSize, A: int64(v)},
				Value: dds.Value{A: int64(len(found)), B: w},
			})
			for i, x := range found {
				out = append(out, dds.KV{
					Key:   dds.Key{Tag: tagConnFound, A: int64(v), B: int64(i)},
					Value: dds.Value{A: int64(x)},
				})
			}
			ctx.WriteMany(out)
		}
		return ctx.Err()
	})
}

// bfsScratch holds one machine's BFS working set, reused across the
// vertices of its block: the visited set, v plus order, stays small (d+1 at
// most), so emptying it between vertices is far cheaper than growing a fresh
// set and four slices per explored vertex.
type bfsScratch struct {
	visited vertexSet
	order   []int
	queue   []int
	keys    []dds.Key
	vals    []ampc.ValueOK
}

// vertexSet is the visited set of one BFS at a time: a linear-probing table
// of id+1 words (0 is empty), at least twice its members.
type vertexSet []uint64

// reset empties the set and sizes it for up to n members.
func (s *vertexSet) reset(n int) {
	if len(*s) < 2*n {
		*s = make(vertexSet, 1<<bits.Len(uint(2*n-1)))
	}
	clear(*s)
}

// add inserts v and reports whether it was absent.
func (s vertexSet) add(v int) bool {
	w, mask := uint64(v)+1, uint64(len(s)-1)
	for i := w * 0x9E3779B97F4A7C15 >> 32 & mask; s[i] != w; i = (i + 1) & mask {
		if s[i] == 0 {
			s[i] = w
			return true
		}
	}
	return false
}

// bfsExplore runs the budgeted BFS from v, returning the visited vertices
// (excluding v) and whether the whole component was exhausted. Adjacency
// lists are pulled through the batched ReadMany API in blocks bounded by
// the per-vertex read cap — the O(d²) of Lemma 6.1, which counts every key
// — and by the remaining exploration capacity, so a block never charges
// more than the sequential probe order could still have needed. The
// returned slice aliases st.order and is valid until the next call with
// the same scratch.
func bfsExplore(ctx *ampc.Ctx, st *bfsScratch, v, d int) ([]int, bool, error) {
	const block = 64
	readCap := 2*d*d + 32
	reads := 0

	visited := &st.visited
	visited.reset(d + 1)
	visited.add(v)
	order := st.order[:0]
	queue := append(st.queue[:0], v)
	whole := true
	keys := st.keys
	vals := st.vals
	qi := 0
	for qi < len(queue) && len(order) < d {
		x := queue[qi]
		qi++
		if reads >= readCap {
			whole = false
			break
		}
		reads++
		deg, ok := ctx.Read(dds.Key{Tag: tagConnDeg, A: int64(x)})
		if !ok {
			return nil, false, fmt.Errorf("core: missing degree for %d (err %v)", x, ctx.Err())
		}
		n := int(deg.A)
		for i := 0; i < n && whole; {
			if len(order) >= d || reads >= readCap {
				whole = false
				break
			}
			batch := n - i
			if batch > block {
				batch = block
			}
			if rem := readCap - reads; batch > rem {
				batch = rem
			}
			// Each unvisited entry grows the visited set, so the remaining
			// capacity bounds how many entries can still be useful.
			room := d - len(order)
			if batch > room {
				batch = room
			}
			keys = keys[:0]
			for t := 0; t < batch; t++ {
				keys = append(keys, dds.Key{Tag: tagConnAdj, A: int64(x), B: int64(i + t)})
			}
			vals = ctx.ReadMany(keys, vals[:0])
			reads += batch
			for t, a := range vals {
				if !a.OK {
					return nil, false, fmt.Errorf("core: missing adjacency (%d,%d) (err %v)", x, i+t, ctx.Err())
				}
				// An entry encountered while the visited set is already full
				// may be a vertex we will never explore: the exploration is
				// no longer provably whole.
				if len(order) >= d {
					whole = false
					break
				}
				u := int(a.Value.A)
				if visited.add(u) {
					order = append(order, u)
					queue = append(queue, u)
				}
			}
			i += batch
		}
		if !whole || reads >= readCap {
			whole = false
			break
		}
	}
	if qi < len(queue) {
		whole = false
	}
	st.order, st.queue, st.keys, st.vals = order, queue, keys, vals
	return order, whole, nil
}

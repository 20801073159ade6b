package ampc

import (
	"cmp"
	"sync"
)

// BlockRange returns the half-open range [lo, hi) of items owned by the
// given machine under a balanced block partition of nItems across p
// machines. The first nItems%p machines receive one extra item.
//
// The paper's algorithms "randomly distribute vertices to machines"; the
// drivers achieve that by block-partitioning a randomly permuted item list,
// which has the same distribution while keeping ranges contiguous.
func BlockRange(machine, nItems, p int) (lo, hi int) {
	if p <= 0 || nItems <= 0 {
		return 0, 0
	}
	q, r := nItems/p, nItems%p
	if machine < r {
		lo = machine * (q + 1)
		hi = lo + q + 1
	} else {
		lo = r*(q+1) + (machine-r)*q
		hi = lo + q
	}
	if lo > nItems {
		lo = nItems
	}
	if hi > nItems {
		hi = nItems
	}
	return lo, hi
}

// BlockOwner returns the machine owning item i under the BlockRange
// partition.
func BlockOwner(i, nItems, p int) int {
	if p <= 0 || nItems <= 0 {
		return 0
	}
	q, r := nItems/p, nItems%p
	boundary := r * (q + 1)
	if i < boundary {
		return i / (q + 1)
	}
	if q == 0 {
		return p - 1
	}
	return r + (i-boundary)/q
}

// FanOut runs f(arg, w) for every w in [0, workers), each on its own
// goroutine unless workers is 1, and returns the error of the lowest failed
// w. It is how the master's own work between rounds — the contraction
// drivers' edge mapping, counting sorts and read-back — stripes over
// Workers. With the shared state in arg and f a plain function, a
// one-worker call allocates nothing.
func FanOut[T any](workers int, arg T, f func(arg T, w int) error) error {
	if workers == 1 {
		return f(arg, 0)
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := range workers {
		go func() {
			defer wg.Done()
			errs[w] = f(arg, w)
		}()
	}
	wg.Wait()
	return cmp.Or(errs...)
}

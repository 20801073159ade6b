package ampc

import (
	"errors"
	"fmt"

	"ampc/internal/core"
	"ampc/internal/dds"
)

// ErrNotQueryable is reported by Engine.Query when a Result cannot serve
// warm point queries: the algorithm registered no query hook, or the run
// did not retain its final store (Options.RetainStore unset).
var ErrNotQueryable = errors.New("ampc: result is not queryable")

// QueryHandler serves warm point queries against one finished job's
// retained store. Implementations are safe for concurrent use — the
// retained store is immutable — and hold the store open until Close.
type QueryHandler interface {
	// Kinds lists the query kinds the handler answers, primary first:
	// "label" for connectivity, "component" for msf, "rank" for listrank.
	Kinds() []string
	// Len returns the number of elements the handler holds values for.
	Len() int
	// Lookup answers one point query: the integer value recorded for key
	// under kind. ok is false when key is out of [0, Len()); an unknown
	// kind returns an error.
	Lookup(kind string, key int) (value int, ok bool, err error)
	// Close releases the retained store. The handler must not be used
	// after Close.
	Close() error
}

// labelHandler is the one QueryHandler: every query kind is an int->int
// labeling the serve-publish round wrote under core.ServeKey, so a lookup
// is one Get on the retained store.
type labelHandler struct {
	kinds []string
	n     int
	store dds.StoreBackend
}

// retained returns the handler over a run's retained store holding n
// labels of the given kind, or (nil, nil) when the run retained none.
func retained(kind string, n int, store dds.StoreBackend) (QueryHandler, error) {
	if store == nil {
		return nil, nil
	}
	return &labelHandler{kinds: []string{kind}, n: n, store: store}, nil
}

func (h *labelHandler) Kinds() []string { return h.kinds }
func (h *labelHandler) Len() int        { return h.n }
func (h *labelHandler) Close() error    { return h.store.Close() }

func (h *labelHandler) Lookup(kind string, key int) (int, bool, error) {
	if kind != h.kinds[0] {
		return 0, false, fmt.Errorf("unknown query kind %q (supported: %v)", kind, h.kinds)
	}
	if key < 0 || key >= h.n {
		return 0, false, nil
	}
	v, ok := h.store.Get(core.ServeKey(key))
	return int(v.A), ok, nil
}

// Query builds the warm point-query surface for a finished job's Result.
// It requires the job to have run with Options.RetainStore and the
// algorithm to have registered a query hook; otherwise it reports
// ErrNotQueryable. The returned handler owns the retained store — exactly
// one handler may be built per Result, and its Close releases the store.
func (e *Engine) Query(res *Result) (QueryHandler, error) {
	spec, ok := Lookup(res.Algo)
	if !ok {
		return nil, unknownAlgorithmError(res.Algo)
	}
	if spec.Query == nil {
		return nil, fmt.Errorf("%w: %q registered no query hook", ErrNotQueryable, res.Algo)
	}
	h, err := spec.Query(res)
	if err != nil {
		return nil, fmt.Errorf("ampc: query %q: %w", res.Algo, err)
	}
	if h == nil {
		return nil, fmt.Errorf("%w: %q ran without Options.RetainStore", ErrNotQueryable, res.Algo)
	}
	return h, nil
}

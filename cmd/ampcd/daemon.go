package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ampc"
	"ampc/internal/graph"
)

// Job states reported by the daemon. A job is created in stateRunning
// (Engine.Run admission may briefly queue it behind MaxConcurrent, which is
// still "running" from the client's point of view) and ends in exactly one
// of the other three.
const (
	stateRunning   = "running"
	stateDone      = "done"
	stateFailed    = "failed"
	stateCancelled = "cancelled"
)

// job is one submitted run and everything the daemon serves about it.
// All fields behind the daemon mutex except the immutable ID/Algo/spec.
type job struct {
	ID    uint64
	Algo  string
	State string

	submitted time.Time
	finished  time.Time
	cancel    context.CancelFunc

	res     *ampc.Result
	errMsg  string
	handler ampc.QueryHandler // non-nil once done with a retained store

	rounds []roundRec
	change chan struct{} // closed and replaced on every visible update

	// The input's vertex (or list element) and edge counts, for status.
	n int
	m int
}

// roundRec is the per-round stats snapshot streamed by the long-poll
// telemetry endpoint.
type roundRec struct {
	Name              string  `json:"name"`
	Queries           int64   `json:"queries"`
	Writes            int64   `json:"writes"`
	MaxMachineQueries int     `json:"max_machine_queries"`
	MaxShardLoad      int64   `json:"max_shard_load"`
	Pairs             int     `json:"pairs"`
	ExecuteMS         float64 `json:"exec_ms"`
	FreezeMS          float64 `json:"freeze_ms"`
	PublishMS         float64 `json:"publish_ms"`
	RPCFrames         int64   `json:"rpc_frames"`
}

// daemon is the long-running serving process: it owns one Engine, a job
// table, and the metrics aggregates. Stores retained by finished jobs stay
// resident until the job is deleted, so point queries after completion are
// warm O(µs) lookups.
type daemon struct {
	eng      *ampc.Engine
	defaults ampc.Options
	metrics  *metrics

	mu     sync.Mutex
	jobs   map[uint64]*job
	nextID uint64
}

func newDaemon(defaults ampc.Options, maxConcurrent int) *daemon {
	d := &daemon{
		defaults: defaults,
		metrics:  newMetrics(),
		jobs:     make(map[uint64]*job),
	}
	d.eng = ampc.NewEngine(ampc.EngineOptions{
		Defaults:      defaults,
		MaxConcurrent: maxConcurrent,
		Observer:      d.metrics.observeRound,
	})
	return d
}

// mux wires the HTTP surface using go 1.22 method+wildcard patterns.
func (d *daemon) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", d.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", d.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", d.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", d.handleDelete)
	mux.HandleFunc("GET /v1/jobs/{id}/result", d.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/query", d.handleQuery)
	mux.HandleFunc("GET /v1/jobs/{id}/telemetry", d.handleTelemetry)
	mux.HandleFunc("GET /metrics", d.handleMetrics)
	mux.HandleFunc("GET /healthz", d.handleHealthz)
	return mux
}

// submitRequest is the POST /v1/jobs body, as decodeSubmit reads it. The
// input is either a generator spec (Graph) or inline data (Edges/Next);
// exactly one form must match the algorithm's input kind.
//
// Inline data is integers only: "edges" is an array of rows, each an array
// of integers, and "next" an array of integers. A number with a fraction or
// an exponent, a leading zero, a value outside int or a null in an integer's
// place is refused. "edges" or "next" set to null counts as absent, and a
// null row as a row of no elements. The body is read whole, up to
// maxSubmitBytes (64 MiB), before it is decoded.
type submitRequest struct {
	Algo string `json:"algo"`

	// Graph selects a generated workload.
	Graph *graphSpec `json:"graph,omitempty"`
	// N with Edges submits an inline graph: rows are [u, v] or, for
	// weighted algorithms, [u, v, w]. Edges is nil when absent.
	N     int   `json:"n,omitempty"`
	Edges *rows `json:"-"`
	// Next submits an inline successor vector for list algorithms.
	Next []int `json:"-"`

	// Check verifies the output against the sequential oracle.
	Check bool `json:"check,omitempty"`
	// Retain keeps the final store resident for /query. Defaults to true —
	// serving point queries is the daemon's purpose.
	Retain *bool `json:"retain,omitempty"`

	Epsilon float64 `json:"eps,omitempty"`
	Seed    uint64  `json:"seed,omitempty"`
}

// graphSpec names a synthetic workload, mirroring ampcrun's -graph kinds
// plus "list" for a path-shaped successor vector.
type graphSpec struct {
	Kind  string `json:"kind"`
	N     int    `json:"n"`
	M     int    `json:"m,omitempty"`
	Trees int    `json:"trees,omitempty"`
	Seed  uint64 `json:"seed,omitempty"`
}

// maxSubmitBytes caps a job submission's body. An inline graph of a few
// million edges fits; a body that never ends does not pin a handler or its
// body buffer.
const maxSubmitBytes = 64 << 20

// maxInputSize bounds a submission's n and m, generated or inline, so a
// body of a few bytes cannot make the daemon allocate without limit. No
// body under maxSubmitBytes lists more elements than it has bytes, so
// every inline input a body can carry fits, and so do the benchmark's
// graphs of 10^5 vertices and 4·10^5 edges.
const maxInputSize = maxSubmitBytes

// sizeErr reports an n or m above maxInputSize, or nil.
func sizeErr(n, m int) error {
	if n > maxInputSize || m > maxInputSize {
		return fmt.Errorf("n=%d, m=%d: above the limit of %d vertices or edges", n, m, maxInputSize)
	}
	return nil
}

// submitBodyTimeout bounds how long a submission may take to deliver its
// body once its headers are in; without it a client that trickles the body
// holds the handler and its body buffer for as long as it likes. It is set per
// request, so the telemetry long-polls keep their own waits.
var submitBodyTimeout = 30 * time.Second

func (d *daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// A writer that cannot take deadlines (a test recorder) reads without
	// one.
	rc := http.NewResponseController(w)
	_ = rc.SetReadDeadline(time.Now().Add(submitBodyTimeout))
	// A body declared over the cap is refused before a byte of it is read;
	// the server then closes the connection instead of draining it.
	if r.ContentLength > maxSubmitBytes {
		httpError(w, http.StatusRequestEntityTooLarge, "request body of %d bytes exceeds %d bytes", r.ContentLength, maxSubmitBytes)
		return
	}
	body, err := readBody(http.MaxBytesReader(w, r.Body, maxSubmitBytes), r.ContentLength)
	if err != nil {
		// The deadline stays: the server drains an unread body before it
		// replies, and that drain must not wait on the client either.
		var tooBig *http.MaxBytesError
		switch {
		case errors.As(err, &tooBig):
			httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
		case errors.Is(err, os.ErrDeadlineExceeded):
			httpError(w, http.StatusRequestTimeout, "request body not received within %v", submitBodyTimeout)
		default:
			httpError(w, http.StatusBadRequest, "decoding request: %v", err)
		}
		return
	}
	_ = rc.SetReadDeadline(time.Time{})
	req, err := decodeSubmit(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	spec, ok := ampc.Lookup(req.Algo)
	if !ok {
		httpError(w, http.StatusBadRequest, "unknown algorithm %q (registered: %s)",
			req.Algo, strings.Join(ampc.Algorithms(), ", "))
		return
	}

	ampcJob, n, m, err := buildJob(spec, req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	opts := d.defaults
	if req.Epsilon != 0 {
		opts.Epsilon = req.Epsilon
	}
	if req.Seed != 0 {
		opts.Seed = req.Seed
	}
	opts.RetainStore = req.Retain == nil || *req.Retain
	ampcJob.Check = req.Check

	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		Algo:      req.Algo,
		State:     stateRunning,
		submitted: time.Now(),
		cancel:    cancel,
		change:    make(chan struct{}),
		n:         n,
		m:         m,
	}
	d.mu.Lock()
	d.nextID++
	j.ID = d.nextID
	d.jobs[j.ID] = j
	d.mu.Unlock()
	d.metrics.jobSubmitted()

	// Per-job observer collects this job's rounds for the long-poll
	// endpoint; the engine-level observer (metrics) fires independently.
	opts.Observer = func(s ampc.RoundStats) {
		d.mu.Lock()
		j.rounds = append(j.rounds, roundRec{
			Name:              s.Name,
			Queries:           s.Queries,
			Writes:            s.Writes,
			MaxMachineQueries: s.MaxMachineQueries,
			MaxShardLoad:      s.MaxShardLoad,
			Pairs:             s.Pairs,
			ExecuteMS:         ms(s.Execute),
			FreezeMS:          ms(s.Freeze),
			PublishMS:         ms(s.Publish),
			RPCFrames:         s.RPCFrames,
		})
		d.notifyLocked(j)
		d.mu.Unlock()
	}
	ampcJob.Opts = &opts

	go d.runJob(ctx, j, ampcJob)

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, map[string]any{"id": j.ID, "state": stateRunning})
}

// runJob executes one submitted job to completion and records its outcome.
func (d *daemon) runJob(ctx context.Context, j *job, ampcJob ampc.Job) {
	res, err := d.eng.Run(ctx, ampcJob)

	// Build the query surface outside the daemon lock; the handler owns
	// the retained store from here on.
	var handler ampc.QueryHandler
	if err == nil && ampcJob.Opts.RetainStore {
		if h, qerr := d.eng.Query(res); qerr == nil {
			handler = h
		} else if !errors.Is(qerr, ampc.ErrNotQueryable) {
			err = qerr
		}
	}

	// Collect the run's garbage - the decoded request body, the input graph,
	// the driver's buffers - before the job reads as finished. Left to the
	// pacer, that collection lands at some later moment inside the serving
	// window (or never, with the heap goal stuck at a multiple of the run's
	// peak), so query latency would depend on how much the run happened to
	// allocate. ampcJob is dead from here on.
	debug.FreeOSMemory()

	d.mu.Lock()
	j.finished = time.Now()
	switch {
	case err == nil:
		j.State = stateDone
		j.res = res
		j.handler = handler
	case errors.Is(err, context.Canceled):
		j.State = stateCancelled
		j.errMsg = "cancelled"
	default:
		j.State = stateFailed
		j.errMsg = err.Error()
		if handler != nil {
			handler.Close()
		}
	}
	d.notifyLocked(j)
	d.mu.Unlock()
	d.metrics.jobFinished(j.State)
}

// notifyLocked wakes every long-poll waiter on j. Caller holds d.mu.
func (d *daemon) notifyLocked(j *job) {
	close(j.change)
	j.change = make(chan struct{})
}

// buildJob turns a submit request into an Engine job, validating that the
// input form matches the algorithm's declared kind.
func buildJob(spec ampc.AlgorithmSpec, req *submitRequest) (ampc.Job, int, int, error) {
	job := ampc.Job{Algo: req.Algo}
	switch spec.Input {
	case ampc.InputList:
		next := req.Next
		if next == nil && req.Graph != nil {
			if req.Graph.Kind != "list" {
				return job, 0, 0, fmt.Errorf("algorithm %q takes a list: use graph kind \"list\" or inline \"next\"", req.Algo)
			}
			if err := sizeErr(req.Graph.N, 0); err != nil {
				return job, 0, 0, err
			}
			var err error
			if next, err = graph.PathList(req.Graph.N); err != nil {
				return job, 0, 0, err
			}
		}
		if next == nil {
			return job, 0, 0, fmt.Errorf("algorithm %q needs \"next\" or a list generator", req.Algo)
		}
		for v, nx := range next {
			if nx < -1 || nx >= len(next) {
				return job, 0, 0, fmt.Errorf("next[%d] = %d out of range", v, nx)
			}
		}
		job.Next = next
		return job, len(next), 0, nil

	case ampc.InputGraph:
		g, err := inputGraph(req)
		if err != nil {
			return job, 0, 0, err
		}
		job.Graph = g
		return job, g.N(), g.M(), nil

	case ampc.InputWeightedGraph:
		wg, err := inputWeightedGraph(req)
		if err != nil {
			return job, 0, 0, err
		}
		job.Weighted = wg
		return job, wg.N(), wg.M(), nil
	}
	return job, 0, 0, fmt.Errorf("algorithm %q has unsupported input kind", req.Algo)
}

func inputGraph(req *submitRequest) (*ampc.Graph, error) {
	if req.Edges != nil {
		if err := sizeErr(req.N, req.Edges.len()); err != nil {
			return nil, err
		}
		edges := make([]ampc.Edge, req.Edges.len())
		for i := range edges {
			e := req.Edges.row(i)
			if len(e) != 2 {
				return nil, fmt.Errorf("edges[%d]: want [u, v], got %d elements", i, len(e))
			}
			edges[i] = ampc.Edge{U: e[0], V: e[1]}
		}
		return ampc.NewGraph(req.N, edges)
	}
	if req.Graph == nil {
		return nil, errors.New("graph algorithms need \"graph\" or inline \"n\"+\"edges\"")
	}
	return makeGraph(req.Graph)
}

func inputWeightedGraph(req *submitRequest) (*ampc.WeightedGraph, error) {
	if req.Edges != nil {
		if err := sizeErr(req.N, req.Edges.len()); err != nil {
			return nil, err
		}
		edges := make([]ampc.WeightedEdge, req.Edges.len())
		for i := range edges {
			e := req.Edges.row(i)
			if len(e) != 3 {
				return nil, fmt.Errorf("edges[%d]: want [u, v, w], got %d elements", i, len(e))
			}
			edges[i] = ampc.WeightedEdge{U: e[0], V: e[1], Weight: int64(e[2])}
		}
		return ampc.NewWeightedGraph(req.N, edges)
	}
	if req.Graph == nil {
		return nil, errors.New("weighted algorithms need \"graph\" or inline \"n\"+\"edges\" with weights")
	}
	g, err := makeGraph(req.Graph)
	if err != nil {
		return nil, err
	}
	return ampc.WithRandomWeights(g, ampc.NewRNG(req.Graph.Seed, 0x11)), nil
}

// makeGraph generates a synthetic workload through graph.Generate, the
// generator table ampcrun shares, once the spec is within the daemon's size
// limit.
func makeGraph(spec *graphSpec) (*ampc.Graph, error) {
	n, m, trees := spec.N, spec.M, spec.Trees
	if m == 0 {
		m = 4 * n
	}
	if trees <= 0 {
		trees = 10
	}
	if err := sizeErr(n, m); err != nil {
		return nil, err
	}
	return graph.Generate(spec.Kind, n, m, trees, ampc.NewRNG(spec.Seed, 0x7))
}

// jobStatus is the wire form of a job's lifecycle state.
type jobStatus struct {
	ID        uint64  `json:"id"`
	Algo      string  `json:"algo"`
	State     string  `json:"state"`
	N         int     `json:"n"`
	M         int     `json:"m,omitempty"`
	Rounds    int     `json:"rounds"`
	Queryable bool    `json:"queryable"`
	Error     string  `json:"error,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

func (d *daemon) statusLocked(j *job) jobStatus {
	end := j.finished
	if j.State == stateRunning {
		end = time.Now()
	}
	return jobStatus{
		ID:        j.ID,
		Algo:      j.Algo,
		State:     j.State,
		N:         j.n,
		M:         j.m,
		Rounds:    len(j.rounds),
		Queryable: j.handler != nil,
		Error:     j.errMsg,
		ElapsedMS: ms(end.Sub(j.submitted)),
	}
}

func (d *daemon) handleList(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	out := make([]jobStatus, 0, len(d.jobs))
	for _, j := range d.jobs {
		out = append(out, d.statusLocked(j))
	}
	d.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	writeJSON(w, map[string]any{"jobs": out})
}

// lookup resolves the {id} path value, writing the error response itself
// when the job does not exist.
func (d *daemon) lookup(w http.ResponseWriter, r *http.Request) (*job, bool) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad job id %q", r.PathValue("id"))
		return nil, false
	}
	d.mu.Lock()
	j, ok := d.jobs[id]
	d.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no job %d", id)
		return nil, false
	}
	return j, true
}

func (d *daemon) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := d.lookup(w, r)
	if !ok {
		return
	}
	d.mu.Lock()
	st := d.statusLocked(j)
	d.mu.Unlock()
	writeJSON(w, st)
}

// handleDelete cancels a running job, or removes a finished one from the
// table and releases its retained store.
func (d *daemon) handleDelete(w http.ResponseWriter, r *http.Request) {
	j, ok := d.lookup(w, r)
	if !ok {
		return
	}
	d.mu.Lock()
	if j.State == stateRunning {
		cancel := j.cancel
		d.mu.Unlock()
		cancel() // runJob moves it to cancelled and notifies
		writeJSON(w, map[string]any{"id": j.ID, "state": "cancelling"})
		return
	}
	handler := j.handler
	j.handler = nil
	delete(d.jobs, j.ID)
	d.notifyLocked(j)
	d.mu.Unlock()
	if handler != nil {
		handler.Close()
	}
	writeJSON(w, map[string]any{"id": j.ID, "state": "deleted"})
}

// resultResponse is the wire form of a finished job's Result.
type resultResponse struct {
	jobStatus
	Summary   string         `json:"summary"`
	Check     string         `json:"check"`
	Labels    []int          `json:"labels,omitempty"`
	Telemetry ampc.Telemetry `json:"telemetry"`
}

func (d *daemon) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := d.lookup(w, r)
	if !ok {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if j.State == stateRunning {
		httpError(w, http.StatusConflict, "job %d is still running", j.ID)
		return
	}
	if j.res == nil {
		httpError(w, http.StatusConflict, "job %d %s: %s", j.ID, j.State, j.errMsg)
		return
	}
	writeJSON(w, resultResponse{
		jobStatus: d.statusLocked(j),
		Summary:   j.res.Summary,
		Check:     j.res.Check.String(),
		Labels:    j.res.Labels,
		Telemetry: j.res.Telemetry,
	})
}

// queryResponse is the wire form of GET /v1/jobs/{id}/query. Point lookups
// fill Values (aligned with the requested keys, Found false for keys out of
// range); pair queries fill Same.
type queryResponse struct {
	Kind   string     `json:"kind"`
	Values []queryHit `json:"values,omitempty"`
	Same   *samePair  `json:"same,omitempty"`
	Len    int        `json:"len"`
}

type queryHit struct {
	Key   int  `json:"key"`
	Value int  `json:"value"`
	Found bool `json:"found"`
}

type samePair struct {
	U    int  `json:"u"`
	V    int  `json:"v"`
	Same bool `json:"same"`
}

// handleQuery answers warm point queries against a finished job's retained
// store: ?key=3, ?keys=1,2,3, or ?u=1&v=2 (same-component, two lookups).
// ?kind= selects the query kind, defaulting to the handler's primary.
func (d *daemon) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	j, ok := d.lookup(w, r)
	if !ok {
		return
	}
	d.mu.Lock()
	h := j.handler
	state := j.State
	d.mu.Unlock()
	if h == nil {
		if state == stateRunning {
			httpError(w, http.StatusConflict, "job %d is still running", j.ID)
		} else {
			httpError(w, http.StatusConflict, "job %d is not queryable (state %s, or submitted with retain=false)", j.ID, state)
		}
		return
	}

	q := r.URL.Query()
	kind := q.Get("kind")
	if kind == "" {
		kind = h.Kinds()[0]
	}
	resp := queryResponse{Kind: kind, Len: h.Len()}

	switch {
	case q.Get("u") != "" || q.Get("v") != "":
		u, err1 := strconv.Atoi(q.Get("u"))
		v, err2 := strconv.Atoi(q.Get("v"))
		if err1 != nil || err2 != nil {
			httpError(w, http.StatusBadRequest, "same-component query needs integer u and v")
			return
		}
		lu, okU, err := h.Lookup(kind, u)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		lv, okV, _ := h.Lookup(kind, v)
		if !okU || !okV {
			httpError(w, http.StatusBadRequest, "u=%d v=%d out of range [0, %d)", u, v, h.Len())
			return
		}
		resp.Same = &samePair{U: u, V: v, Same: lu == lv}

	case q.Get("keys") != "":
		parts := strings.Split(q.Get("keys"), ",")
		if len(parts) > 4096 {
			httpError(w, http.StatusBadRequest, "at most 4096 keys per request")
			return
		}
		resp.Values = make([]queryHit, 0, len(parts))
		for _, p := range parts {
			key, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				httpError(w, http.StatusBadRequest, "bad key %q", p)
				return
			}
			val, found, err := h.Lookup(kind, key)
			if err != nil {
				httpError(w, http.StatusBadRequest, "%v", err)
				return
			}
			resp.Values = append(resp.Values, queryHit{Key: key, Value: val, Found: found})
		}

	case q.Get("key") != "":
		key, err := strconv.Atoi(q.Get("key"))
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad key %q", q.Get("key"))
			return
		}
		val, found, err := h.Lookup(kind, key)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		resp.Values = []queryHit{{Key: key, Value: val, Found: found}}

	default:
		httpError(w, http.StatusBadRequest, "query needs ?key=, ?keys=, or ?u=&v=")
		return
	}

	writeJSON(w, resp)
	d.metrics.observeQuery(len(resp.Values)+boolInt(resp.Same != nil), time.Since(start))
}

// telemetryResponse is the long-poll wire form: rounds since ?after=N, the
// job's current state, and the next cursor.
type telemetryResponse struct {
	State  string     `json:"state"`
	Rounds []roundRec `json:"rounds"`
	Next   int        `json:"next"`
}

// handleTelemetry long-polls per-round stats: it answers immediately when
// rounds beyond ?after=N exist or the job has finished, and otherwise
// blocks until the next round completes (publish-on-change), the ?wait=
// window expires (default 30s), or the client goes away.
func (d *daemon) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	j, ok := d.lookup(w, r)
	if !ok {
		return
	}
	after := 0
	if s := r.URL.Query().Get("after"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 {
			httpError(w, http.StatusBadRequest, "bad after %q", s)
			return
		}
		after = v
	}
	wait := 30 * time.Second
	if s := r.URL.Query().Get("wait"); s != "" {
		v, err := time.ParseDuration(s)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad wait %q", s)
			return
		}
		wait = v
	}
	deadline := time.NewTimer(wait)
	defer deadline.Stop()

	for {
		d.mu.Lock()
		if len(j.rounds) > after || j.State != stateRunning {
			resp := telemetryResponse{State: j.State, Next: len(j.rounds)}
			if after < len(j.rounds) {
				resp.Rounds = append([]roundRec(nil), j.rounds[after:]...)
			}
			d.mu.Unlock()
			writeJSON(w, resp)
			return
		}
		ch := j.change
		d.mu.Unlock()
		select {
		case <-ch:
		case <-deadline.C:
			writeJSON(w, telemetryResponse{State: stateRunning, Rounds: nil, Next: after})
			return
		case <-r.Context().Done():
			return
		}
	}
}

func (d *daemon) handleMetrics(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	var running, resident int
	for _, j := range d.jobs {
		if j.State == stateRunning {
			running++
		}
		if j.handler != nil {
			resident++
		}
	}
	d.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	d.metrics.write(w, running, resident)
}

func (d *daemon) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"ok": true, "algorithms": ampc.Algorithms()})
}

// close cancels running jobs and releases every retained store.
func (d *daemon) close() {
	d.mu.Lock()
	var cancels []context.CancelFunc
	var handlers []ampc.QueryHandler
	for _, j := range d.jobs {
		if j.State == stateRunning && j.cancel != nil {
			cancels = append(cancels, j.cancel)
		}
		if j.handler != nil {
			handlers = append(handlers, j.handler)
			j.handler = nil
		}
	}
	d.mu.Unlock()
	for _, c := range cancels {
		c()
	}
	for _, h := range handlers {
		h.Close()
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	if w.Header().Get("Content-Type") == "" {
		w.Header().Set("Content-Type", "application/json")
	}
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"ampc"
)

// latRingSize bounds the point-query latency sample buffer; 4096 samples
// give stable percentiles without unbounded memory on a long-lived daemon.
const latRingSize = 4096

// metrics aggregates everything /metrics exposes: engine-level round
// telemetry (fed by the Engine's TelemetryObserver), job lifecycle counts,
// and the point-query latency distribution. All methods are safe for
// concurrent use.
type metrics struct {
	mu sync.Mutex

	rounds       int64
	phaseSeconds map[string]float64
	queries      int64
	writes       int64
	pointReads   int64
	rpcFrames    int64

	jobsSubmitted int64
	jobsFinished  map[string]int64 // done / failed / cancelled

	pointQueries int64 // individual lookups served
	latRing      [latRingSize]float64
	latCount     int64 // total latency samples ever recorded
}

func newMetrics() *metrics {
	return &metrics{
		phaseSeconds: map[string]float64{
			"execute": 0, "freeze": 0, "freeze_merge": 0, "freeze_build": 0, "publish": 0,
		},
		jobsFinished: map[string]int64{stateDone: 0, stateFailed: 0, stateCancelled: 0},
	}
}

// observeRound is the Engine-level TelemetryObserver: every round of every
// job lands here, whichever job ran it.
func (m *metrics) observeRound(ev ampc.RoundEvent) {
	s := ev.Round
	m.mu.Lock()
	m.rounds++
	m.phaseSeconds["execute"] += s.Execute.Seconds()
	m.phaseSeconds["freeze"] += s.Freeze.Seconds()
	m.phaseSeconds["freeze_merge"] += s.FreezeMerge.Seconds()
	m.phaseSeconds["freeze_build"] += s.FreezeBuild.Seconds()
	m.phaseSeconds["publish"] += s.Publish.Seconds()
	m.queries += s.Queries
	m.writes += s.Writes
	m.pointReads += s.CacheMisses
	m.rpcFrames += s.RPCFrames
	m.mu.Unlock()
}

func (m *metrics) jobSubmitted() {
	m.mu.Lock()
	m.jobsSubmitted++
	m.mu.Unlock()
}

func (m *metrics) jobFinished(state string) {
	m.mu.Lock()
	m.jobsFinished[state]++
	m.mu.Unlock()
}

// observeQuery records one /query request: n individual lookups answered in
// d. The latency sample is per request (that is what a client experiences);
// the counter advances per lookup.
func (m *metrics) observeQuery(n int, d time.Duration) {
	us := float64(d.Nanoseconds()) / 1e3
	m.mu.Lock()
	m.pointQueries += int64(n)
	m.latRing[m.latCount%latRingSize] = us
	m.latCount++
	m.mu.Unlock()
}

// latQuantiles returns the p50/p90/p99 of the retained latency samples, in
// microseconds. Caller holds m.mu.
func (m *metrics) latQuantilesLocked() (p50, p90, p99 float64, n int) {
	n = int(m.latCount)
	if n > latRingSize {
		n = latRingSize
	}
	if n == 0 {
		return 0, 0, 0, 0
	}
	samples := append([]float64(nil), m.latRing[:n]...)
	sort.Float64s(samples)
	q := func(p float64) float64 {
		i := int(p * float64(n-1))
		return samples[i]
	}
	return q(0.50), q(0.90), q(0.99), n
}

// write emits the Prometheus text exposition format (hand-rolled — the
// module has no dependencies). running/resident are point-in-time gauges
// owned by the daemon's job table.
func (m *metrics) write(w io.Writer, running, resident int) {
	m.mu.Lock()
	defer m.mu.Unlock()

	counter := func(name, help string, v any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %v\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}

	counter("ampcd_jobs_submitted_total", "Jobs accepted by POST /v1/jobs.", m.jobsSubmitted)
	fmt.Fprintf(w, "# HELP ampcd_jobs_finished_total Jobs finished, by terminal state.\n# TYPE ampcd_jobs_finished_total counter\n")
	for _, state := range []string{stateDone, stateFailed, stateCancelled} {
		fmt.Fprintf(w, "ampcd_jobs_finished_total{state=%q} %d\n", state, m.jobsFinished[state])
	}
	gauge("ampcd_jobs_running", "Jobs currently executing rounds.", running)
	gauge("ampcd_resident_stores", "Finished jobs holding a warm retained store.", resident)

	counter("ampcd_rounds_total", "AMPC rounds executed across all jobs.", m.rounds)
	fmt.Fprintf(w, "# HELP ampcd_round_phase_seconds_total Wall-clock seconds per round phase.\n# TYPE ampcd_round_phase_seconds_total counter\n")
	for _, phase := range []string{"execute", "freeze", "freeze_merge", "freeze_build", "publish"} {
		fmt.Fprintf(w, "ampcd_round_phase_seconds_total{phase=%q} %g\n", phase, m.phaseSeconds[phase])
	}
	counter("ampcd_store_queries_total", "DDS queries issued by round functions.", m.queries)
	counter("ampcd_store_writes_total", "Pairs written to next-round stores.", m.writes)
	counter("ampcd_store_point_reads_total", "Point reads that reached the store.", m.pointReads)
	counter("ampcd_rpc_read_frames_total", "Read-path request frames sent by the rpc backend.", m.rpcFrames)

	counter("ampcd_point_queries_total", "Warm point lookups served by /v1/jobs/{id}/query.", m.pointQueries)
	p50, p90, p99, n := m.latQuantilesLocked()
	if n > 0 {
		fmt.Fprintf(w, "# HELP ampcd_point_query_latency_us Server-side /query latency quantiles over the last %d requests.\n# TYPE ampcd_point_query_latency_us gauge\n", n)
		fmt.Fprintf(w, "ampcd_point_query_latency_us{quantile=\"0.5\"} %g\n", p50)
		fmt.Fprintf(w, "ampcd_point_query_latency_us{quantile=\"0.9\"} %g\n", p90)
		fmt.Fprintf(w, "ampcd_point_query_latency_us{quantile=\"0.99\"} %g\n", p99)
	}
}

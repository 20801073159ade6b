package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"ampc"
)

// testServer starts a daemon behind httptest and returns the base URL.
func testServer(t *testing.T) (*daemon, string) {
	t.Helper()
	d := newDaemon(ampc.Options{Seed: 1}, 0)
	srv := httptest.NewServer(d.mux())
	t.Cleanup(func() { srv.Close(); d.close() })
	return d, srv.URL
}

// postJob submits a job and returns its id.
func postJob(t *testing.T, base string, req submitWire) uint64 {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID uint64 `json:"id"`
	}
	if err := decodeJSON(resp, http.StatusAccepted, &sub); err != nil {
		t.Fatalf("submit: %v", err)
	}
	return sub.ID
}

// decodeJSON checks the response status and decodes the body, surfacing the
// server's error message on mismatch.
func decodeJSON(resp *http.Response, wantStatus int, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		return fmt.Errorf("status %d (want %d): %s", resp.StatusCode, wantStatus, e.Error)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// get fetches URL expecting the given status and decodes the JSON body.
func get(t *testing.T, url string, wantStatus int, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if err := decodeJSON(resp, wantStatus, v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// waitDone long-polls the telemetry endpoint until the job leaves
// stateRunning, returning its terminal state. This exercises the
// publish-on-change push path on every test that waits.
func waitDone(t *testing.T, base string, id uint64) string {
	t.Helper()
	cursor := 0
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var tel telemetryResponse
		get(t, fmt.Sprintf("%s/v1/jobs/%d/telemetry?after=%d&wait=2s", base, id, cursor), http.StatusOK, &tel)
		cursor = tel.Next
		if tel.State != stateRunning {
			return tel.State
		}
	}
	t.Fatalf("job %d still running after 60s", id)
	return ""
}

func TestDaemonLifecycle(t *testing.T) {
	_, base := testServer(t)
	id := postJob(t, base, submitWire{
		Algo:  "connectivity",
		Graph: &graphSpec{Kind: "gnm", N: 2000, M: 5000, Seed: 3},
		Check: true,
	})
	if got := waitDone(t, base, id); got != stateDone {
		t.Fatalf("job ended %q, want done", got)
	}
	jobURL := fmt.Sprintf("%s/v1/jobs/%d", base, id)

	var res resultResponse
	get(t, jobURL+"/result", http.StatusOK, &res)
	if res.Check != "passed" {
		t.Fatalf("check = %q, want passed", res.Check)
	}
	g := ampc.GNM(2000, 5000, ampc.NewRNG(3, 0x7))
	oracle := ampc.Components(g)
	if !ampc.SameLabeling(res.Labels, oracle) {
		t.Fatal("result labels disagree with the oracle partition")
	}
	if res.Telemetry.Rounds == 0 || res.Telemetry.TotalQueries == 0 {
		t.Fatalf("empty telemetry: %+v", res.Telemetry)
	}

	// Point query, batch query, same-component query — all against the
	// warm retained store, cross-checked with the result labels.
	var q queryResponse
	get(t, jobURL+"/query?key=17", http.StatusOK, &q)
	if len(q.Values) != 1 || !q.Values[0].Found || q.Values[0].Value != res.Labels[17] {
		t.Fatalf("point query: %+v, want label %d", q.Values, res.Labels[17])
	}
	if q.Kind != "label" {
		t.Fatalf("default kind = %q, want label", q.Kind)
	}
	get(t, jobURL+"/query?keys=0,5,1999", http.StatusOK, &q)
	if len(q.Values) != 3 {
		t.Fatalf("batch query returned %d values", len(q.Values))
	}
	for _, h := range q.Values {
		if !h.Found || h.Value != res.Labels[h.Key] {
			t.Fatalf("batch query %+v, want label %d", h, res.Labels[h.Key])
		}
	}
	get(t, jobURL+"/query?u=4&v=9", http.StatusOK, &q)
	if q.Same == nil || q.Same.Same != (res.Labels[4] == res.Labels[9]) {
		t.Fatalf("same-component query: %+v", q.Same)
	}

	// Out-of-range key answers found=false, not an error.
	get(t, jobURL+"/query?key=999999", http.StatusOK, &q)
	if len(q.Values) != 1 || q.Values[0].Found {
		t.Fatalf("out-of-range query: %+v", q.Values)
	}
	// Unknown kind is a client error.
	var e struct {
		Error string `json:"error"`
	}
	get(t, jobURL+"/query?kind=rank&key=1", http.StatusBadRequest, &e)
	if !strings.Contains(e.Error, "unknown query kind") {
		t.Fatalf("unknown kind error = %q", e.Error)
	}

	// The metrics scrape reflects the run and the queries above.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`ampcd_jobs_finished_total{state="done"} 1`,
		`ampcd_resident_stores 1`,
		`ampcd_round_phase_seconds_total{phase="execute"}`,
		`ampcd_point_query_latency_us{quantile="0.5"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}

	// Deleting the finished job frees the store; the job is then gone.
	req, _ := http.NewRequest(http.MethodDelete, jobURL, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var del map[string]any
	if err := decodeJSON(resp, http.StatusOK, &del); err != nil {
		t.Fatalf("delete: %v", err)
	}
	get(t, jobURL, http.StatusNotFound, &e)
}

func TestDaemonListrankAndMSF(t *testing.T) {
	_, base := testServer(t)

	// List ranking over an inline successor vector.
	n := 500
	next := make([]int, n)
	for i := 0; i < n-1; i++ {
		next[i] = i + 1
	}
	next[n-1] = -1
	lrID := postJob(t, base, submitWire{Algo: "listrank", Next: next, Check: true})

	// MSF over a generated weighted graph.
	msfID := postJob(t, base, submitWire{
		Algo:  "msf",
		Graph: &graphSpec{Kind: "gnm", N: 400, M: 900, Seed: 5},
		Check: true,
	})

	if got := waitDone(t, base, lrID); got != stateDone {
		t.Fatalf("listrank ended %q", got)
	}
	if got := waitDone(t, base, msfID); got != stateDone {
		t.Fatalf("msf ended %q", got)
	}

	var res resultResponse
	var q queryResponse
	get(t, fmt.Sprintf("%s/v1/jobs/%d/result", base, lrID), http.StatusOK, &res)
	get(t, fmt.Sprintf("%s/v1/jobs/%d/query?key=0", base, lrID), http.StatusOK, &q)
	if q.Kind != "rank" || q.Values[0].Value != res.Labels[0] {
		t.Fatalf("listrank query: kind %q values %+v, want rank %d", q.Kind, q.Values, res.Labels[0])
	}

	get(t, fmt.Sprintf("%s/v1/jobs/%d/query?u=1&v=2&kind=component", base, msfID), http.StatusOK, &q)
	if q.Same == nil {
		t.Fatal("msf same-component query returned no pair")
	}
	g := ampc.GNM(400, 900, ampc.NewRNG(5, 0x7))
	oracle := ampc.Components(g)
	if q.Same.Same != (oracle[1] == oracle[2]) {
		t.Fatalf("msf same-component(1,2) = %v, oracle says %v", q.Same.Same, oracle[1] == oracle[2])
	}
}

func TestDaemonRetainFalse(t *testing.T) {
	_, base := testServer(t)
	off := false
	id := postJob(t, base, submitWire{
		Algo:   "connectivity",
		Graph:  &graphSpec{Kind: "gnm", N: 300, M: 600, Seed: 2},
		Retain: &off,
	})
	if got := waitDone(t, base, id); got != stateDone {
		t.Fatalf("job ended %q", got)
	}
	// Result still serves; the query surface does not.
	var res resultResponse
	get(t, fmt.Sprintf("%s/v1/jobs/%d/result", base, id), http.StatusOK, &res)
	var e struct {
		Error string `json:"error"`
	}
	get(t, fmt.Sprintf("%s/v1/jobs/%d/query?key=0", base, id), http.StatusConflict, &e)
	if !strings.Contains(e.Error, "not queryable") {
		t.Fatalf("retain=false query error = %q", e.Error)
	}
}

// A finished job must not leave its garbage for the serving window: by the
// time a client can see "done", the daemon has run a collection of its own.
func TestDaemonCollectsAfterJob(t *testing.T) {
	_, base := testServer(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := postJob(t, base, submitWire{
		Algo:  "connectivity",
		Graph: &graphSpec{Kind: "gnm", N: 300, M: 600, Seed: 2},
	})
	if got := waitDone(t, base, id); got != stateDone {
		t.Fatalf("job ended %q", got)
	}
	runtime.ReadMemStats(&after)
	if after.NumForcedGC == before.NumForcedGC {
		t.Fatal("job finished without the daemon collecting its garbage")
	}
}

func TestDaemonCancel(t *testing.T) {
	_, base := testServer(t)
	// Big enough to still be running when the cancel lands; if it wins the
	// race anyway, the test accepts done.
	id := postJob(t, base, submitWire{
		Algo:  "connectivity",
		Graph: &graphSpec{Kind: "gnm", N: 300000, M: 900000, Seed: 4},
	})
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/jobs/%d", base, id), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var del map[string]any
	if err := decodeJSON(resp, http.StatusOK, &del); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	switch got := waitDone(t, base, id); got {
	case stateCancelled, stateDone:
	default:
		t.Fatalf("cancelled job ended %q", got)
	}
}

// TestDaemonDegenerateSpecs submits generator specs outside their
// generators' contracts, and inputs above the size limit: each must get a
// prompt 400 naming the reason, not a hung request (cgnm's rejection
// sampling on a too-dense spec), an empty reply (a generator panic
// recovered by net/http) or an allocation the body's few bytes ask for.
func TestDaemonDegenerateSpecs(t *testing.T) {
	_, base := testServer(t)
	client := &http.Client{Timeout: 5 * time.Second}
	conn := func(spec graphSpec) submitWire { return submitWire{Algo: "connectivity", Graph: &spec} }
	for _, tc := range []struct {
		req  submitWire
		want string
	}{
		{conn(graphSpec{Kind: "cgnm", N: 3}), "exceeds n(n-1)/2"},
		{conn(graphSpec{Kind: "gnm", N: 1}), "exceeds n(n-1)/2"},
		{conn(graphSpec{Kind: "cgnm", N: 100, M: 50}), "below n-1"},
		{conn(graphSpec{Kind: "cycle2", N: 7}), "even n >= 6"},
		{conn(graphSpec{Kind: "forest", N: 5}), "trees=10 exceeds n=5"},
		{conn(graphSpec{Kind: "gnm", N: 10, M: -1}), "negative"},
		{conn(graphSpec{Kind: "gnm", N: maxInputSize + 1, M: 10}), "above the limit"},
		{submitWire{Algo: "listrank", Graph: &graphSpec{Kind: "list", N: -1}}, "list: n=-1 is negative"},
		{submitWire{Algo: "listrank", Graph: &graphSpec{Kind: "list", N: maxInputSize + 1}}, "above the limit"},
		{submitWire{Algo: "connectivity", N: maxInputSize + 1, Edges: [][]int{{0, 1}}}, "above the limit"},
		{submitWire{Algo: "msf", N: maxInputSize + 1, Edges: [][]int{{0, 1, 5}}}, "above the limit"},
	} {
		body, _ := json.Marshal(tc.req)
		resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := decodeJSON(resp, http.StatusBadRequest, &e); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if !strings.Contains(e.Error, tc.want) {
			t.Fatalf("%s: error %q, want it to mention %q", body, e.Error, tc.want)
		}
	}
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after the degenerate specs: %s", resp.Status)
	}
}

func TestDaemonBadRequests(t *testing.T) {
	_, base := testServer(t)
	var e struct {
		Error string `json:"error"`
	}

	post := func(req submitWire) *http.Response {
		body, _ := json.Marshal(req)
		resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	if err := decodeJSON(post(submitWire{Algo: "nope"}), http.StatusBadRequest, &e); err != nil {
		t.Fatal(err)
	}
	if err := decodeJSON(post(submitWire{Algo: "connectivity"}), http.StatusBadRequest, &e); err != nil {
		t.Fatal(err) // no input at all
	}
	if err := decodeJSON(post(submitWire{
		Algo: "connectivity", Graph: &graphSpec{Kind: "dodecahedron", N: 10},
	}), http.StatusBadRequest, &e); err != nil {
		t.Fatal(err)
	}
	if err := decodeJSON(post(submitWire{
		Algo: "listrank", Next: []int{5, -1}, // successor out of range
	}), http.StatusBadRequest, &e); err != nil {
		t.Fatal(err)
	}

	get(t, base+"/v1/jobs/999", http.StatusNotFound, &e)
	get(t, base+"/v1/jobs/999/query?key=0", http.StatusNotFound, &e)

	// Inline unweighted edges for a weighted algorithm are rejected.
	if err := decodeJSON(post(submitWire{
		Algo: "msf", N: 3, Edges: [][]int{{0, 1}},
	}), http.StatusBadRequest, &e); err != nil {
		t.Fatal(err)
	}

	// Healthz lists the registry.
	var hz struct {
		OK         bool     `json:"ok"`
		Algorithms []string `json:"algorithms"`
	}
	get(t, base+"/healthz", http.StatusOK, &hz)
	if !hz.OK || len(hz.Algorithms) == 0 {
		t.Fatalf("healthz: %+v", hz)
	}
}

// repeatByte is an endless reader of one byte value.
type repeatByte byte

func (b repeatByte) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// TestDaemonSubmitBodyCap serves the daemon through newServer, checks the
// header read timeout is set, and submits a body one byte over the cap: it
// must be refused with 413 while /healthz keeps answering. The body streams
// from a generator, so the client never holds it.
func TestDaemonSubmitBodyCap(t *testing.T) {
	d := newDaemon(ampc.Options{Seed: 1}, 0)
	srv := newServer("127.0.0.1:0", d)
	if srv.ReadHeaderTimeout <= 0 {
		t.Fatal("server has no ReadHeaderTimeout")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close(); d.close() })
	base := "http://" + ln.Addr().String()

	prefix := `{"algo":"`
	body := io.MultiReader(strings.NewReader(prefix), io.LimitReader(repeatByte('a'), maxSubmitBytes+1-int64(len(prefix))))
	resp, err := http.Post(base+"/v1/jobs", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit: status %d, want %d", resp.StatusCode, http.StatusRequestEntityTooLarge)
	}
	var health map[string]any
	get(t, base+"/healthz", http.StatusOK, &health)
}

// TestDaemonSubmitDeclaredTooLarge declares a body past the cap in its
// headers and sends none of it: the 413 must come from the declared length
// at once, not after the body deadline or a read of the cap's worth of
// bytes, and the daemon must keep serving.
func TestDaemonSubmitDeclaredTooLarge(t *testing.T) {
	defer func(d time.Duration) { submitBodyTimeout = d }(submitBodyTimeout)
	submitBodyTimeout = 5 * time.Second
	d := newDaemon(ampc.Options{Seed: 1}, 0)
	srv := newServer("127.0.0.1:0", d)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close(); d.close() })

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/jobs HTTP/1.1\r\nHost: ampcd\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", 100<<20)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	start := time.Now()
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("declared-oversized submit got no response: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("declared-oversized submit: status %d, want %d", resp.StatusCode, http.StatusRequestEntityTooLarge)
	}
	if waited := time.Since(start); waited >= submitBodyTimeout {
		t.Fatalf("answered after %v, not before the %v body deadline", waited, submitBodyTimeout)
	}
	var health map[string]any
	get(t, "http://"+ln.Addr().String()+"/healthz", http.StatusOK, &health)
}

// TestDaemonSubmitBodyDeadline sends a submission's headers at once and one
// byte of its body, then stalls: the handler must answer 408 once the body
// deadline passes instead of waiting on the client, and the daemon must
// keep serving.
func TestDaemonSubmitBodyDeadline(t *testing.T) {
	defer func(d time.Duration) { submitBodyTimeout = d }(submitBodyTimeout)
	submitBodyTimeout = 200 * time.Millisecond
	d := newDaemon(ampc.Options{Seed: 1}, 0)
	srv := newServer("127.0.0.1:0", d)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close(); d.close() })

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The clock starts before the headers go out: the server's deadline
	// starts when they arrive, which can be before a write returns.
	start := time.Now()
	fmt.Fprint(conn, "POST /v1/jobs HTTP/1.1\r\nHost: ampcd\r\nContent-Type: application/json\r\nContent-Length: 64\r\n\r\n{")
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("stalled submit got no response: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("stalled submit: status %d, want %d", resp.StatusCode, http.StatusRequestTimeout)
	}
	if waited := time.Since(start); waited < submitBodyTimeout {
		t.Fatalf("answered after %v, before the %v body deadline", waited, submitBodyTimeout)
	}
	var health map[string]any
	get(t, "http://"+ln.Addr().String()+"/healthz", http.StatusOK, &health)
}

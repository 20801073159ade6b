package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// daemon is one real ampcd subprocess holding the workload's retained
// connectivity store.
type daemon struct {
	cmd      *exec.Cmd
	exited   chan struct{}
	client   *http.Client
	jobURL   string
	labels   []int // as served at /result; the reference for every request
	workers  int
	peakRSS  float64 // MB, read just before the process is stopped
	stopOnce sync.Once
}

// startDaemon launches ampcd on a free loopback port, submits the
// workload's graph as inline edges with retain, and waits for the job.
func startDaemon(cfg *config, in input) (*daemon, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := lis.Addr().String()
	lis.Close()

	cmd := exec.Command(cfg.ampcd, "-addr", addr,
		"-workers", strconv.Itoa(cfg.workers), "-seed", strconv.FormatUint(cfg.seed, 10))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(cfg.workers))
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", cfg.ampcd, err)
	}
	d := &daemon{
		cmd:     cmd,
		exited:  make(chan struct{}),
		workers: cfg.workers,
		// One connection per load goroutine, never more than min(nproc, 4).
		client: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: cfg.workers, MaxConnsPerHost: cfg.workers},
		},
	}
	go func() {
		cmd.Wait()
		close(d.exited)
	}()
	base := "http://" + addr
	if err := d.submit(base, cfg.seed, in); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *daemon) submit(base string, seed uint64, in input) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := d.client.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case <-d.exited:
			return fmt.Errorf("ampcd exited before serving")
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ampcd not healthy after 10s: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}

	var body bytes.Buffer
	fmt.Fprintf(&body, `{"algo":"connectivity","retain":true,"seed":%d,"n":%d,"edges":[`, seed, in.n)
	for i, e := range in.graph.Edges() {
		if i > 0 {
			body.WriteByte(',')
		}
		body.WriteByte('[')
		body.WriteString(strconv.Itoa(e.U))
		body.WriteByte(',')
		body.WriteString(strconv.Itoa(e.V))
		body.WriteByte(']')
	}
	body.WriteString("]}")
	resp, err := d.client.Post(base+"/v1/jobs", "application/json", &body)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	var sub struct {
		ID uint64 `json:"id"`
	}
	if err := decodeResponse(resp, http.StatusAccepted, &sub); err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	d.jobURL = fmt.Sprintf("%s/v1/jobs/%d", base, sub.ID)

	for {
		resp, err := d.client.Get(d.jobURL)
		if err != nil {
			return fmt.Errorf("job status: %w", err)
		}
		var st struct {
			State     string `json:"state"`
			Queryable bool   `json:"queryable"`
			Error     string `json:"error"`
		}
		if err := decodeResponse(resp, http.StatusOK, &st); err != nil {
			return fmt.Errorf("job status: %w", err)
		}
		if st.State == "running" {
			time.Sleep(2 * time.Millisecond)
			continue
		}
		if st.State != "done" || !st.Queryable {
			return fmt.Errorf("job ended %s (queryable=%v): %s", st.State, st.Queryable, st.Error)
		}
		return nil
	}
}

// loadLabels fetches the whole labeling from /result.
func (d *daemon) loadLabels() error {
	resp, err := d.client.Get(d.jobURL + "/result")
	if err != nil {
		return fmt.Errorf("result: %w", err)
	}
	var res struct {
		Labels []int `json:"labels"`
	}
	if err := decodeResponse(resp, http.StatusOK, &res); err != nil {
		return fmt.Errorf("result: %w", err)
	}
	d.labels = res.Labels
	return nil
}

func decodeResponse(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// stop records the daemon's peak RSS, then terminates it and waits until
// the process has ended.
func (d *daemon) stop() {
	d.stopOnce.Do(func() {
		d.peakRSS = peakRSSMB(d.cmd.Process.Pid)
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.exited:
		case <-time.After(5 * time.Second):
			d.cmd.Process.Kill()
			<-d.exited
		}
		d.client.CloseIdleConnections()
	})
}

// peakRSSMB reads VmHWM of a process from /proc; 0 if unavailable.
// internal/sysmem reports the calling process only, and the serving
// workload needs the daemon's high-water mark, so both go through here.
func peakRSSMB(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			if f := bytes.Fields(rest); len(f) > 0 {
				kb, _ := strconv.ParseFloat(string(f[0]), 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// query builds the request's URL query string.
func (r request) query() string {
	switch r.kind {
	case kindPair:
		return "?u=" + strconv.Itoa(r.keys[0]) + "&v=" + strconv.Itoa(r.keys[1])
	case kindBatch:
		b := make([]byte, 0, 8*len(r.keys))
		b = append(b, "?keys="...)
		for i, k := range r.keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(k), 10)
		}
		return string(b)
	}
	return "?key=" + strconv.Itoa(r.keys[0])
}

// do sends one request and returns the response body, read into buf.
func (d *daemon) do(r request, buf *bytes.Buffer) error {
	resp, err := d.client.Get(d.jobURL + "/query" + r.query())
	if err != nil {
		return err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return nil
}

// check verifies a response body against the labels served at /result.
func (d *daemon) check(r request, body []byte) error {
	var resp struct {
		Values []struct {
			Key, Value int
			Found      bool
		} `json:"values"`
		Same *struct {
			U, V int
			Same bool
		} `json:"same"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if r.kind == kindPair {
		want := d.labels[r.keys[0]] == d.labels[r.keys[1]]
		if resp.Same == nil || resp.Same.Same != want {
			return fmt.Errorf("pair %v: served %+v, labels say same=%v", r.keys, resp.Same, want)
		}
		return nil
	}
	if len(resp.Values) != len(r.keys) {
		return fmt.Errorf("asked %d keys, got %d values", len(r.keys), len(resp.Values))
	}
	for i, k := range r.keys {
		if v := resp.Values[i]; !v.Found || v.Key != k || v.Value != d.labels[k] {
			return fmt.Errorf("key %d: served %+v, label is %d", k, v, d.labels[k])
		}
	}
	return nil
}

// loadResult collects what the load goroutines saw.
type loadResult struct {
	mu     sync.Mutex
	failed int
	err    error
}

func (l *loadResult) fail(err error) {
	l.mu.Lock()
	l.failed++
	if l.err == nil {
		l.err = err
	}
	l.mu.Unlock()
}

// burst is the serving workload's closed loop: cfg.workers goroutines, one
// connection each, send the first k requests of the pool back to back, each
// sending its next request only when the previous one completed. It returns
// the wall time to complete all k. A response is verified right after its
// latency window closes.
func (inst *instance) burst(tr *tracer, parent, k int, verify bool) repResult {
	d, reqs := inst.d, inst.in.reqs
	var next atomic.Int64
	var res loadResult
	var wg sync.WaitGroup
	start := time.Now()
	section := tr.open("ampcd.burst", parent, start)
	for w := 0; w < d.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1)) - 1
				if i >= k {
					return
				}
				r := reqs[i%len(reqs)]
				t0 := time.Now()
				err := d.do(r, &buf)
				tr.add(httpSpans[r.kind], section, t0, time.Now())
				if err == nil && verify {
					err = d.check(r, buf.Bytes())
				}
				if err != nil {
					res.fail(err)
				}
			}
		}()
	}
	wg.Wait()
	end := time.Now()
	tr.close(section, end)
	return repResult{wall: end.Sub(start), attempted: k, failed: res.failed, err: res.err}
}

// openResult is one open-loop section: latencies measured from the instant
// each request was due, per kind and overall, plus how late the generator
// itself ran.
type openResult struct {
	all       []float64           // µs from due time
	byKind    [numKinds][]float64 // µs from due time
	late      []float64           // µs between due time and actual send
	achieved  float64             // completed requests per second
	attempted int
	failed    int
	err       error
}

// runOpenLoop drives n operations on a fixed schedule, whatever the
// operations do: operation i is due at start + i*interval. workers
// goroutines take due operations in order; when all are busy a due
// operation waits, and that wait counts, because lat is measured from the
// due time, not from the send. late is how far behind its due time each
// operation was sent. op receives the send time and returns the instant
// its response was complete.
func runOpenLoop(n, workers int, interval time.Duration, op func(i int, sent time.Time) time.Time) (lat, late []float64, elapsed time.Duration) {
	lat, late = make([]float64, n), make([]float64, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(5 * time.Millisecond)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				sleepUntil(due)
				sent := time.Now()
				end := op(i, sent)
				lat[i] = float64(end.Sub(due).Nanoseconds()) / 1e3
				late[i] = float64(sent.Sub(due).Nanoseconds()) / 1e3
			}
		}()
	}
	wg.Wait()
	return lat, late, time.Since(start)
}

// sleepUntil blocks the calling thread until t. time.Sleep parks the
// goroutine on the runtime's poller, whose timeout is whole milliseconds -
// sub-millisecond waits overshoot by about half a millisecond, which would
// be charged to the server as latency. nanosleep overshoots by tens of
// microseconds, and the lateness that remains is reported.
func sleepUntil(t time.Time) {
	if wait := time.Until(t); wait > 0 {
		ts := syscall.NsecToTimespec(wait.Nanoseconds())
		syscall.Nanosleep(&ts, nil)
	}
}

// openLoop is the serving workload's open loop: rate requests per second
// for the given duration over cfg.workers connections.
func (inst *instance) openLoop(tr *tracer, parent int, rate int, seconds float64) openResult {
	d, reqs := inst.d, inst.in.reqs
	n := int(float64(rate) * seconds)
	if n < 1 {
		n = 1
	}
	var res loadResult
	bufs := sync.Pool{New: func() any { return new(bytes.Buffer) }}
	sectionStart := time.Now()
	section := tr.open("ampcd.open_loop", parent, sectionStart)
	lat, late, elapsed := runOpenLoop(n, d.workers, time.Second/time.Duration(rate), func(i int, sent time.Time) time.Time {
		r := reqs[i%len(reqs)]
		buf := bufs.Get().(*bytes.Buffer)
		defer bufs.Put(buf)
		err := d.do(r, buf)
		end := time.Now()
		tr.add(httpSpans[r.kind], section, sent, end)
		if err == nil {
			err = d.check(r, buf.Bytes())
		}
		if err != nil {
			res.fail(err)
		}
		return end
	})
	tr.close(section, time.Now())
	out := openResult{all: lat, late: late, attempted: n, failed: res.failed, err: res.err,
		achieved: float64(n) / elapsed.Seconds()}
	for i, l := range lat {
		k := reqs[i%len(reqs)].kind
		out.byKind[k] = append(out.byKind[k], l)
	}
	return out
}

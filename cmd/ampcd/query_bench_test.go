package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ampc"
	"ampc/internal/rng"
)

// discardResponse is a reusable http.ResponseWriter that keeps only the
// status, so a benchmark counts the handler's allocations and not a
// recorder's buffer.
type discardResponse struct {
	h      http.Header
	status int
}

func (w *discardResponse) Header() http.Header         { return w.h }
func (w *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardResponse) WriteHeader(code int)        { w.status = code }

// BenchmarkHandleQuery serves serve-cc-http's three query shapes — a point
// lookup, a 64-key batch and a same-component pair — through the daemon's
// mux over a retained connectivity store of GNM(10^5, 4·10^5), with no
// network in between: allocs/op and B/op are the handler's own.
func BenchmarkHandleQuery(b *testing.B) {
	const n = 100000
	d := newDaemon(ampc.Options{Seed: 1}, 0)
	defer d.close()
	mux := d.mux()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs",
		strings.NewReader(fmt.Sprintf(`{"algo":"connectivity","graph":{"kind":"gnm","n":%d,"m":%d,"seed":1}}`, n, 4*n))))
	var st jobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || rec.Code != http.StatusAccepted {
		b.Fatalf("submit: status %d, %v: %s", rec.Code, err, rec.Body)
	}
	jobURL := fmt.Sprintf("/v1/jobs/%d", st.ID)
	for deadline := time.Now().Add(time.Minute); st.State != stateDone; time.Sleep(10 * time.Millisecond) {
		rec = httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, jobURL, nil))
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			b.Fatal(err)
		}
		if (st.State != stateRunning && st.State != stateDone) || time.Now().After(deadline) {
			b.Fatalf("job state %q: %s", st.State, st.Error)
		}
	}

	r := rng.New(2, 0)
	queries := map[string]func() string{
		"point": func() string { return fmt.Sprintf("?key=%d", r.Intn(n)) },
		"batch": func() string {
			var q strings.Builder
			q.WriteString("?keys=")
			for i := 0; i < 64; i++ {
				if i > 0 {
					q.WriteByte(',')
				}
				fmt.Fprint(&q, r.Intn(n))
			}
			return q.String()
		},
		"pair": func() string { return fmt.Sprintf("?u=%d&v=%d", r.Intn(n), r.Intn(n)) },
	}
	for _, name := range []string{"point", "batch", "pair"} {
		b.Run(name, func(b *testing.B) {
			reqs := make([]*http.Request, 256)
			for i := range reqs {
				reqs[i] = httptest.NewRequest(http.MethodGet, jobURL+"/query"+queries[name](), nil)
			}
			w := &discardResponse{h: http.Header{}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.status = http.StatusOK
				mux.ServeHTTP(w, reqs[i%len(reqs)])
				if w.status != http.StatusOK {
					b.Fatalf("%s query: status %d", name, w.status)
				}
			}
		})
	}
}

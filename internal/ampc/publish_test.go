package ampc

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ampc/internal/dds"
)

// chase runs a few rounds of pointer doubling over n keys on rt, reading
// adaptively and writing every round, and returns the final labels read
// driver-side — a small workload that exercises execute, freeze, publish
// and driver reads on whatever backend rt was configured with.
func chase(t *testing.T, rt *Runtime, n int) []int64 {
	t.Helper()
	input := make([]dds.KV, n)
	for i := range input {
		input[i] = dds.KV{Key: key(int64(i), 0), Value: val(int64((i+1)%n), 0)}
	}
	rt.SetInput(input)
	for r := 0; r < 3; r++ {
		err := rt.Round(fmt.Sprintf("hop-%d", r), func(ctx *Ctx) error {
			for x := ctx.Machine; x < n; x += ctx.P {
				v, _ := ctx.Read(key(int64(x), 0))
				w, _ := ctx.Read(key(v.A, 0))
				ctx.Write(key(int64(x), 0), w)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	out := make([]int64, n)
	for i := range out {
		v, ok := rt.Store().Get(key(int64(i), 0))
		if !ok {
			t.Fatalf("key %d missing from final store", i)
		}
		out[i] = v.A
	}
	return out
}

// TestWriteBehindBackendMatchesMem runs the same computation on the mem
// backend and on write-behind file publishers under both residencies, for
// worker counts 1 and 8, and requires identical outputs — the runtime-level
// half of the backend differential. Drop residency barriers before every
// execute, so each round's reads all go through the mmap'd segment.
func TestWriteBehindBackendMatchesMem(t *testing.T) {
	const n = 256
	mk := func(backend dds.Publisher, workers int) Config {
		return Config{P: 16, S: 200, Seed: 7, Workers: workers, Backend: backend}
	}
	memRT := New(mk(nil, 1))
	defer memRT.Close()
	want := chase(t, memRT, n)

	for _, drop := range []bool{false, true} {
		for _, workers := range []int{1, 8} {
			pub := dds.NewFilePublisher("")
			pub.SetDropRetired(drop)
			rt := New(mk(pub, workers))
			got := chase(t, rt, n)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("drop=%v workers=%d: label[%d] = %d, want %d", drop, workers, i, got[i], want[i])
				}
			}
			stats := rt.Stats()
			rt.Close()
			if len(stats) != 3 {
				t.Fatalf("drop=%v workers=%d: %d rounds recorded", drop, workers, len(stats))
			}
		}
	}
}

// TestClosJoinsWriteBehindPublish pins the Close contract: closing the
// runtime joins the in-flight write-behind publish, so the final round's
// segment is durable in a caller-supplied store directory after Close — and
// no temp file survives anywhere under it.
func TestClosJoinsWriteBehindPublish(t *testing.T) {
	dir := t.TempDir()
	pub := dds.NewFilePublisher(dir)
	rt := New(Config{P: 8, S: 200, Seed: 3, Backend: pub})
	chase(t, rt, 128)
	if err := rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	var segments, temps []string
	if err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		switch filepath.Ext(path) {
		case ".seg":
			segments = append(segments, path)
		case ".tmp":
			temps = append(temps, path)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(temps) != 0 {
		t.Fatalf("temp files survived Close: %v", temps)
	}
	if len(segments) != 1 {
		t.Fatalf("store dir holds %d segments after Close, want exactly the final one: %v", len(segments), segments)
	}
	fs, err := dds.OpenSegment(segments[0])
	if err != nil {
		t.Fatalf("final segment unreadable after Close: %v", err)
	}
	defer fs.Close()
	if fs.Len() == 0 {
		t.Fatal("final segment is empty")
	}
}

// TestCloseSurfacesFinalPublishError pins the durability regression guard:
// when the final round's write-behind publish dies after Round already
// returned, the error must surface from Close — under synchronous
// publishing it would have surfaced from that Round.
func TestCloseSurfacesFinalPublishError(t *testing.T) {
	pub := dds.NewFilePublisher(t.TempDir())
	ctx, cancel := context.WithCancel(context.Background())
	pub.SetContext(ctx)
	cancel() // every write-behind publish aborts before becoming durable
	rt := New(Config{P: 8, S: 200, Seed: 4, Backend: pub})
	rt.SetInput([]dds.KV{pair(0, 1)}) // starts the doomed publish; no Round runs to report it
	if err := rt.Close(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Close error = %v, want context.Canceled", err)
	}
}

// TestRoundStatsPublishPhase checks the publish phase accounting: the mem
// backend reports zero publish time, and file-backed rounds report the
// barrier join plus publisher handoff without losing freeze accounting.
func TestRoundStatsPublishPhase(t *testing.T) {
	pub := dds.NewFilePublisher("")
	rt := New(Config{P: 8, S: 200, Seed: 9, Backend: pub})
	defer rt.Close()
	chase(t, rt, 512)
	for i, st := range rt.Stats() {
		if st.Publish < 0 {
			t.Fatalf("round %d: negative publish time", i)
		}
		if st.Freeze <= 0 {
			t.Fatalf("round %d: freeze phase not recorded", i)
		}
	}

	memRT := New(Config{P: 8, S: 200, Seed: 9})
	defer memRT.Close()
	chase(t, memRT, 512)
	for i, st := range memRT.Stats() {
		// The mem publisher's barrier and publish are no-ops; the recorded
		// phase is just two clock reads and must stay negligible.
		if st.Publish > time.Millisecond {
			t.Fatalf("round %d: mem backend reported publish time %v", i, st.Publish)
		}
	}
}

package dds

import (
	"bytes"
	"flag"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// crashChildArg marks a re-exec of the test binary as the crash child: the
// process TestCrashRecoveryAfterSIGKILL kills mid-run. The argument after it
// is the publisher's directory ("" for a publisher-owned temp directory).
const crashChildArg = "dds-crash-child"

// crashPairs is the crash child's store content: enough pairs that a
// generation's write-behind publish spans real time.
func crashPairs() []KV { return randomPairs(rand.New(rand.NewSource(1)), 20000, 4) }

// TestCrashRecoveryAfterSIGKILL is the file publisher's crash-consistency
// test. It re-executes the test binary as a child running a write-behind
// round loop, SIGKILLs the child once its k-th segment appears, and lets a
// fresh publisher's first Publish sweep what the dead run left. In a
// caller's directory exactly the dead run's newest segment survives, opens
// verified, and no temp file is left anywhere; under the shared temporary
// parent nothing of the dead run survives.
func TestCrashRecoveryAfterSIGKILL(t *testing.T) {
	if flag.Arg(0) == crashChildArg {
		crashChild(flag.Arg(1))
		return
	}
	requireFileLocking(t)
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3} {
		t.Run(fmt.Sprintf("supplied/k=%d", k), func(t *testing.T) {
			dir := t.TempDir()
			newest := killAfterSegments(t, exe, dir, dir, k)
			fresh := NewFilePublisher(dir)
			b := publishOne(t, fresh, 1, 10)
			defer fresh.Close()
			defer b.Close()

			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			var dead []string
			for _, e := range entries {
				if run := filepath.Join(dir, e.Name()); e.IsDir() && run != fresh.Dir() {
					dead = append(dead, run)
				}
			}
			if len(dead) != 1 {
				t.Fatalf("run directories besides the fresh one: %v, want the dead run's alone", dead)
			}
			want := fmt.Sprintf(segFileFmt, newest)
			if segs := segFiles(t, dead[0]); len(segs) != 1 || segs[0] != want {
				t.Fatalf("dead run holds %v after the sweep, want exactly its newest %s", segs, want)
			}
			seg, err := OpenSegment(filepath.Join(dead[0], want))
			if err != nil {
				t.Fatalf("dead run's newest segment does not open: %v", err)
			}
			defer seg.Close()
			if seg.Len() != len(crashPairs()) {
				t.Fatalf("dead run's newest segment holds %d pairs, want %d", seg.Len(), len(crashPairs()))
			}
			for _, path := range walkFiles(dir) {
				if strings.HasSuffix(path, ".tmp") {
					t.Errorf("temp file survived the sweep: %s", path)
				}
			}
		})
		t.Run(fmt.Sprintf("owned/k=%d", k), func(t *testing.T) {
			tmp := t.TempDir()
			t.Setenv("TMPDIR", tmp) // the child inherits it
			killAfterSegments(t, exe, "", tmp, k)
			fresh := NewFilePublisher("")
			b := publishOne(t, fresh, 1, 10)
			defer fresh.Close()
			defer b.Close()

			// Only the shared parent, its gate lock and the fresh run remain.
			parent, own := filepath.Join(tmp, "ampc-dds"), fresh.Dir()
			for _, path := range walkFiles(tmp) {
				switch {
				case path == parent, path == filepath.Join(parent, ".ampc-dir.lock"),
					path == own, strings.HasPrefix(path, own+string(filepath.Separator)):
				default:
					t.Errorf("the dead run left %s under the temp parent", path)
				}
			}
		})
	}
}

// killAfterSegments runs the crash child publishing into dir, SIGKILLs it
// once a segment with sequence k-1 appears anywhere under root, and returns
// the newest segment sequence on disk after the kill.
func killAfterSegments(t *testing.T, exe, dir, root string, k int) int {
	t.Helper()
	var out bytes.Buffer
	cmd := exec.Command(exe, "-test.run=^TestCrashRecoveryAfterSIGKILL$", crashChildArg, dir)
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	deadline := time.After(time.Minute)
	for newestSegment(root) < k-1 {
		select {
		case err := <-exited:
			t.Fatalf("crash child exited before its segment %d appeared: %v\n%s", k-1, err, out.Bytes())
		case <-deadline:
			cmd.Process.Kill()
			<-exited
			t.Fatalf("no segment %d under %s within a minute", k-1, root)
		case <-time.After(time.Millisecond):
		}
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-exited
	return newestSegment(root)
}

// newestSegment returns the largest store-*.seg sequence under root, or -1.
func newestSegment(root string) int {
	newest := -1
	for _, path := range walkFiles(root) {
		var seq int
		if n, err := fmt.Sscanf(filepath.Base(path), segFileFmt, &seq); n == 1 && err == nil && seq > newest {
			newest = seq
		}
	}
	return newest
}

// walkFiles lists every file and directory under root, tolerating entries a
// live writer removes mid-walk.
func walkFiles(root string) []string {
	var paths []string
	filepath.WalkDir(root, func(path string, _ fs.DirEntry, err error) error {
		if err == nil && path != root {
			paths = append(paths, path)
		}
		return nil
	})
	return paths
}

// crashChild is the process the test kills: the runtime's write-behind
// round loop against a file publisher — publish a generation under a fresh
// salt, build the next store while it writes, retire the previous backend —
// until SIGKILL arrives. Reaching the end of the loop is a failure.
func crashChild(dir string) {
	pub := NewFilePublisher(dir)
	pairs := crashPairs()
	var prev StoreBackend
	for seq := 0; seq < 100000; seq++ {
		b, err := pub.Publish(seq, NewStore(pairs, 8, uint64(seq)*1315423911+5))
		if err != nil {
			fmt.Fprintln(os.Stderr, "publish:", err)
			os.Exit(2)
		}
		if prev != nil {
			prev.Close()
		}
		prev = b
	}
	fmt.Fprintln(os.Stderr, "crash child was never killed")
	os.Exit(2)
}

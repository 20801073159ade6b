package rpc

import (
	"errors"
	"testing"
	"time"

	"ampc/internal/dds"
)

// fleetOf starts n loopback servers via the Fleet helper with per-test
// cleanup.
func fleetOf(t *testing.T, n int) *Fleet {
	t.Helper()
	f, err := StartFleet(make([]ServerConfig, n))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestFleetKillRestart pins the restart semantics the chaos scenarios rely
// on: a killed server refuses instantly (reads fail over to its replica), a
// restarted one rebinds the same address but rejoins empty, so reads of the
// generation published before the kill keep failing over while new puts
// land normally.
func TestFleetKillRestart(t *testing.T) {
	f := fleetOf(t, 2)
	addrs := f.Addrs()
	pairs := testPairs(200)
	ref := reference(pairs)
	cfg := Config{Servers: addrs, Replication: 2, Timeout: time.Second, DownCooldown: 10 * time.Millisecond}
	_, b := publish(t, cfg, dds.NewStore(pairs, 4, 0x5eed))

	if err := f.Kill(1); err != nil {
		t.Fatal(err)
	}
	if err := f.Kill(1); err == nil {
		t.Fatal("double kill not reported")
	}
	checkBackend(t, b, ref) // replica 0 serves everything
	if err := f.Restart(1); err != nil {
		t.Fatal(err)
	}
	if got := f.Addrs()[1]; got != addrs[1] {
		t.Fatalf("restart moved the server: %s != %s", got, addrs[1])
	}
	// The relaunched server is empty: a read routed to it answers noStore
	// and the client falls back to the surviving replica — byte-identical
	// answers, nothing latched.
	time.Sleep(20 * time.Millisecond) // let the down cooldown lapse
	checkBackend(t, b, ref)
	if err := b.ReadErr(); err != nil {
		t.Fatalf("kill+restart latched %v", err)
	}
}

// TestFleetPauseStraggler pins the straggler axis: a paused server holds
// requests without answering (exactly what SIGSTOP does to a shardd
// process), so short-timeout clients fail over to replicas; Resume releases
// the held requests and the server answers again.
func TestFleetPauseStraggler(t *testing.T) {
	f := fleetOf(t, 3)
	pairs := testPairs(200)
	ref := reference(pairs)
	cfg := Config{Servers: f.Addrs(), Replication: 2, Timeout: 100 * time.Millisecond, DownCooldown: 10 * time.Millisecond}
	_, b := publish(t, cfg, dds.NewStore(pairs, 6, 0x5eed))

	if err := f.Pause(1); err != nil {
		t.Fatal(err)
	}
	checkBackend(t, b, ref) // timeouts mark server 1 down, replicas answer
	if err := b.ReadErr(); err != nil {
		t.Fatalf("paused-server failover latched %v", err)
	}

	// A request held by the pause completes once Resume fires.
	if err := f.Resume(1); err != nil {
		t.Fatal(err)
	}
	patient := newClient(Config{Servers: f.Addrs()[1:2], Timeout: 5 * time.Second})
	defer patient.close()
	uploadStore(t, patient, 7, dds.NewStore(pairs[:10], 1, 0x5eed))
	if err := f.Pause(1); err != nil { // re-pause after upload
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, ok, err := patient.getOne(7, pairs[0].Key, 0, 1)
		if err == nil && !ok {
			err = errors.New("held read answered absent")
		}
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("read answered while paused: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := f.Resume(1); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("read after resume: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("held read never completed after resume")
	}
}

// TestPausedServerCloseReleases pins the shutdown interaction: closing a
// paused server must release its held handlers instead of deadlocking.
func TestPausedServerCloseReleases(t *testing.T) {
	f := fleetOf(t, 1)
	pairs := testPairs(20)
	c := newClient(Config{Servers: f.Addrs(), Timeout: 5 * time.Second})
	defer c.close()
	uploadStore(t, c, 1, dds.NewStore(pairs, 1, 0x5eed))
	f.Server(0).Pause()
	done := make(chan struct{})
	go func() {
		c.getOne(1, pairs[0].Key, 0, 1)
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	if err := f.Kill(0); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("close of a paused server left its handler stuck")
	}
}

package rpc

import (
	"fmt"
	"sync"
)

// Fleet is a set of in-process loopback shard servers launched and torn
// down together, with the chaos controls the scenario orchestrator drives:
// kill a server, relaunch it on the same address, pause it (hold requests
// unanswered like a SIGSTOPped process) and resume it — one launch/teardown
// path shared by the tests, cmd/scenario and the benchmark.
//
// In-process, but not in-memory: every read still crosses a real TCP
// socket and pays full serialization and protocol cost.
type Fleet struct {
	mu      sync.Mutex
	cfgs    []ServerConfig
	addrs   []string
	servers []*Server // nil while killed
}

// StartFleet launches one server per config. An empty Addr picks a free
// loopback port; the resolved address is fixed for the fleet's lifetime,
// so Restart rebinds the same port. On any launch failure the servers
// already started are closed.
func StartFleet(cfgs []ServerConfig) (*Fleet, error) {
	f := &Fleet{
		cfgs:    append([]ServerConfig(nil), cfgs...),
		addrs:   make([]string, len(cfgs)),
		servers: make([]*Server, len(cfgs)),
	}
	for i := range f.cfgs {
		if f.cfgs[i].Addr == "" {
			f.cfgs[i].Addr = "127.0.0.1:0"
		}
		s, err := NewServer(f.cfgs[i])
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("rpc: fleet server %d: %w", i, err)
		}
		f.servers[i] = s
		f.addrs[i] = s.Addr()
		f.cfgs[i].Addr = s.Addr()
	}
	return f, nil
}

// Addrs returns the fleet's server addresses, stable across kills and
// restarts.
func (f *Fleet) Addrs() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.addrs...)
}

// Server returns the i-th live server, or nil while it is killed.
func (f *Fleet) Server(i int) *Server {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.servers[i]
}

// Kill closes server i: its listener drops, open connections sever, and
// clients see instant connection-refused until Restart.
func (f *Fleet) Kill(i int) error {
	f.mu.Lock()
	s := f.servers[i]
	f.servers[i] = nil
	f.mu.Unlock()
	if s == nil {
		return fmt.Errorf("rpc: fleet server %d already killed", i)
	}
	return s.Close()
}

// Restart relaunches a killed server on its original address with its
// original config. The relaunched server rejoins empty — resident
// generations died with the process, exactly like a real shardd restart —
// so reads of older stores answer noStore and clients fail over.
func (f *Fleet) Restart(i int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.servers[i] != nil {
		return fmt.Errorf("rpc: fleet server %d still running", i)
	}
	s, err := NewServer(f.cfgs[i])
	if err != nil {
		return fmt.Errorf("rpc: restart fleet server %d on %s: %w", i, f.cfgs[i].Addr, err)
	}
	f.servers[i] = s
	return nil
}

// Pause holds server i's requests unanswered (see Server.Pause).
func (f *Fleet) Pause(i int) error {
	s := f.Server(i)
	if s == nil {
		return fmt.Errorf("rpc: fleet server %d is killed, cannot pause", i)
	}
	s.Pause()
	return nil
}

// Resume releases server i's held requests (see Server.Resume).
func (f *Fleet) Resume(i int) error {
	s := f.Server(i)
	if s == nil {
		return fmt.Errorf("rpc: fleet server %d is killed, cannot resume", i)
	}
	s.Resume()
	return nil
}

// Close tears the whole fleet down, tolerating servers already killed.
func (f *Fleet) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	var first error
	for i, s := range f.servers {
		if s == nil {
			continue
		}
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
		f.servers[i] = nil
	}
	return first
}

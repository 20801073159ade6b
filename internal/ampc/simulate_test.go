package ampc

import (
	"errors"
	"testing"

	"ampc/internal/rpc"
)

// TestMPCRoundRing simulates the MPC token ring from the paper's §2
// construction: machine m sends its id around the ring for several rounds.
func TestMPCRoundRing(t *testing.T) {
	const p = 8
	rt := New(Config{P: p, S: 100, Seed: 1})

	// Round 1: everyone sends its id to the next machine.
	err := rt.MPCRound("send", p, func(m int, inbox []SimMessage, send func(SimMessage)) {
		if len(inbox) != 0 {
			t.Errorf("machine %d: unexpected inbox %v", m, inbox)
		}
		send(SimMessage{Dst: (m + 1) % p, A: int64(m)})
	})
	if err != nil {
		t.Fatal(err)
	}
	// Rounds 2..4: forward whatever arrives.
	for round := 0; round < 3; round++ {
		err = rt.MPCRound("forward", p, func(m int, inbox []SimMessage, send func(SimMessage)) {
			if len(inbox) != 1 {
				t.Errorf("machine %d: inbox size %d", m, len(inbox))
				return
			}
			send(SimMessage{Dst: (m + 1) % p, A: inbox[0].A})
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// After 4 hops, machine m holds the id of machine m-4.
	err = rt.MPCRound("check", p, func(m int, inbox []SimMessage, _ func(SimMessage)) {
		want := int64((m + p - 4) % p)
		if len(inbox) != 1 || inbox[0].A != want {
			t.Errorf("machine %d: got %v, want token %d", m, inbox, want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMPCRoundFanIn checks MPCRound's delivery, its model limits and its
// accounting, on mem and over one in-process rpc server, where the inbox's
// count and range probes cross the wire: a fan-in to one machine arrives
// whole, messages to two items of one machine land in their own inboxes in
// sender-machine order, and a fan-in of more than Budget() messages to one
// item fails the round with ErrBudget. Every round's queries, busiest
// machine's queries and read calls, and point-read misses are pinned: each
// item's inbox read costs one count query, one query per message, and two
// read calls (one for an empty inbox).
func TestMPCRoundFanIn(t *testing.T) {
	srv, err := rpc.NewServer(rpc.ServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, backend := range []string{"mem", "rpc"} {
		t.Run(backend, func(t *testing.T) {
			c := Config{P: 6, S: 100, Seed: 2}
			if backend == "rpc" {
				c.Backend = rpc.NewPublisher(rpc.Config{Servers: []string{srv.Addr()}})
			}
			rt := New(c)
			defer rt.Close()
			mpcFanIn(t, rt)
			want := []struct {
				name                 string
				queries              int64
				maxQueries, maxCalls int
				misses               int64
			}{
				{"fan", 6, 1, 1, 0},
				{"collect", 12, 7, 2, 0},
				{"pair", 12, 2, 2, 0},
				{"split", 30, 20, 4, 0},
				{"flood", 6, 1, 1, 0},
			}
			st := rt.Stats()
			if len(st) != len(want) {
				t.Fatalf("%d stats records, want %d", len(st), len(want))
			}
			for i, w := range want {
				g := st[i]
				if g.Name != w.name || g.Queries != w.queries || g.MaxMachineQueries != w.maxQueries ||
					g.MaxMachineReadCalls != w.maxCalls || g.CacheMisses != w.misses {
					t.Errorf("round %d: %s queries %d, max machine queries %d, max read calls %d, misses %d; want %+v",
						i, g.Name, g.Queries, g.MaxMachineQueries, g.MaxMachineReadCalls, g.CacheMisses, w)
				}
			}
		})
	}
}

// mpcFanIn runs TestMPCRoundFanIn's rounds on rt, checking every inbox.
func mpcFanIn(t *testing.T, rt *Runtime) {
	t.Helper()
	const p = 6
	err := rt.MPCRound("fan", p, func(m int, _ []SimMessage, send func(SimMessage)) {
		send(SimMessage{Dst: 0, A: int64(m)})
	})
	if err != nil {
		t.Fatal(err)
	}
	err = rt.MPCRound("collect", p, func(m int, inbox []SimMessage, _ func(SimMessage)) {
		if m != 0 {
			if len(inbox) != 0 {
				t.Errorf("machine %d received %v", m, inbox)
			}
			return
		}
		if len(inbox) != p {
			t.Errorf("machine 0 received %d messages, want %d", len(inbox), p)
		}
		sum := int64(0)
		for _, msg := range inbox {
			sum += msg.A
		}
		if sum != int64(p*(p-1)/2) {
			t.Errorf("sum = %d", sum)
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	// Items 0 and 1 of 2p both belong to machine 0. Every machine m sends
	// (m, 0) and (m, 1) to item 1 with (m, 2) to item 0 in between: each
	// item's inbox is its own, in sender-machine order, then send order.
	const items = 2 * p
	err = rt.MPCRound("pair", items, func(m int, _ []SimMessage, send func(SimMessage)) {
		send(SimMessage{Dst: 1, A: int64(m), B: 0})
		send(SimMessage{Dst: 0, A: int64(m), B: 2})
		send(SimMessage{Dst: 1, A: int64(m), B: 1})
	})
	if err != nil {
		t.Fatal(err)
	}
	err = rt.MPCRound("split", items, func(m int, inbox []SimMessage, _ func(SimMessage)) {
		if m != 0 {
			if len(inbox) != 0 {
				t.Errorf("machine %d received %v", m, inbox)
			}
			return
		}
		var want []SimMessage
		for s := 0; s < p; s++ {
			want = append(want, SimMessage{Dst: 0, A: int64(s), B: 2})
		}
		for s := 0; s < p; s++ {
			want = append(want,
				SimMessage{Dst: 1, A: int64(s), B: 0},
				SimMessage{Dst: 1, A: int64(s), B: 1})
		}
		if len(inbox) != len(want) {
			t.Fatalf("machine 0 inbox %v, want %v", inbox, want)
		}
		for i := range want {
			if inbox[i] != want[i] {
				t.Fatalf("machine 0 inbox[%d] = %v, want %v (inbox %v)", i, inbox[i], want[i], inbox)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	// A fan-in past the budget: every machine sends within its own write
	// budget, but item 0's reader would receive more than Budget().
	per := rt.Budget()/p + 1
	err = rt.MPCRound("flood", p, func(m int, _ []SimMessage, send func(SimMessage)) {
		for i := 0; i < per; i++ {
			send(SimMessage{Dst: 0, A: int64(m)})
		}
	})
	if err != nil {
		t.Fatalf("sends within each machine's budget failed: %v", err)
	}
	err = rt.MPCRound("overflow", p, func(m int, inbox []SimMessage, _ func(SimMessage)) {
		if m == 0 {
			t.Errorf("machine 0 ran on an over-budget inbox of %d", len(inbox))
		}
	})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("fan-in of %d > %d messages: err = %v, want ErrBudget", per*p, rt.Budget(), err)
	}
}

package ampc

import (
	"errors"
	"testing"
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

// TestMPCRoundFanIn checks MPCRound's delivery and its model limits: a
// fan-in to one machine arrives whole, messages to two items of one machine
// land in their own inboxes in sender-machine order, and a fan-in of more
// than Budget() messages to one item fails the round with ErrBudget.
func TestMPCRoundFanIn(t *testing.T) {
	const p = 6
	rt := New(Config{P: p, S: 100, Seed: 2})
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

// TestPRAMPrefixSums runs the classic O(log n)-step pointer-doubling prefix
// sum on the simulated CREW PRAM and checks the O(1)-rounds-per-step claim.
func TestPRAMPrefixSums(t *testing.T) {
	const n = 64
	rt := New(Config{P: 8, S: 200, Seed: 3})
	mem := make([]int64, n)
	for i := range mem {
		mem[i] = int64(i + 1)
	}
	pram, err := NewPRAM(rt, n, mem)
	if err != nil {
		t.Fatal(err)
	}
	roundsBefore := rt.Rounds()

	steps := 0
	for stride := 1; stride < n; stride *= 2 {
		steps++
		st := stride
		err := pram.Step("scan", func(s *StepCtx) error {
			i := s.Proc
			cur, err := s.Read(i)
			if err != nil {
				return err
			}
			if i >= st {
				prev, err := s.Read(i - st)
				if err != nil {
					return err
				}
				s.Write(i, cur+prev)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	got := pram.Memory()
	for i := 0; i < n; i++ {
		want := int64((i + 1) * (i + 2) / 2)
		if got[i] != want {
			t.Fatalf("prefix[%d] = %d, want %d", i, got[i], want)
		}
	}
	if rounds := rt.Rounds() - roundsBefore; rounds != steps {
		t.Fatalf("PRAM used %d rounds for %d steps, want exactly 1 per step", rounds, steps)
	}
}

func TestPRAMCarryForward(t *testing.T) {
	rt := New(Config{P: 4, S: 100, Seed: 4})
	pram, err := NewPRAM(rt, 4, []int64{10, 20, 30, 40})
	if err != nil {
		t.Fatal(err)
	}
	// Step 1: only processor 0 writes (cell 0 = 11); others idle.
	err = pram.Step("touch", func(s *StepCtx) error {
		if s.Proc == 0 {
			v, err := s.Read(0)
			if err != nil {
				return err
			}
			s.Write(0, v+1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Several idle steps: memory must survive untouched.
	for i := 0; i < 3; i++ {
		if err := pram.Step("idle", func(*StepCtx) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	got := pram.Memory()
	want := []int64{11, 20, 30, 40}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("memory = %v, want %v", got, want)
		}
	}
}

func TestPRAMCrossMachineWrite(t *testing.T) {
	// A processor writes a cell owned by a DIFFERENT machine's block; the
	// owner's stale carry must lose to the fresh write.
	rt := New(Config{P: 4, S: 100, Seed: 5})
	pram, err := NewPRAM(rt, 4, []int64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	err = pram.Step("cross", func(s *StepCtx) error {
		if s.Proc == 3 {
			s.Write(0, 999) // cell 0 lives in machine 0's block
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pram.Step("idle", func(*StepCtx) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := pram.Memory()[0]; got != 999 {
		t.Fatalf("cell 0 = %d after cross-machine write, want 999", got)
	}
}

func TestPRAMValidation(t *testing.T) {
	rt := New(Config{P: 2, S: 50, Seed: 6})
	if _, err := NewPRAM(rt, 0, []int64{1}); err == nil {
		t.Fatal("zero processors accepted")
	}
	pram, err := NewPRAM(rt, 2, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	err = pram.Step("bad-read", func(s *StepCtx) error {
		if s.Proc == 0 {
			if _, err := s.Read(99); err == nil {
				t.Error("read of unwritten cell succeeded")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if pram.Processors() != 2 || pram.Cells() != 1 {
		t.Fatal("accessors wrong")
	}
}

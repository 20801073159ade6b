package ampc

import (
	"fmt"

	"ampc/internal/dds"
)

// This file implements the paper's §2 simulation claims constructively:
//
//   - "It is easy to simulate every MPC algorithm in the AMPC model.
//     Namely, instead of sending a message to machine with id x, we can
//     write a key-value pair keyed by x to the DDS. In the following round,
//     each machine reads all key-value pairs keyed by its id."
//   - "Due to known simulations of PRAM algorithms by MPC, the AMPC model
//     can also simulate existing PRAM algorithms ... using O(1) rounds per
//     PRAM step, and total space proportional to the number of processors."
//
// Both simulators run on the ordinary budget-enforced Runtime, so the
// simulated algorithms inherit the model's communication accounting. The
// MPC baselines of the paper's Figure 1 (internal/mpc) run on MPCRound.

// Reserved tags for simulation traffic. They sit at the top of the
// algorithm tag space; the static-store namespace bit (0x80) stays clear.
const (
	tagSimMsg  uint8 = 0x70 // (tag, dstItem, 0) -> message words (duplicated per message)
	tagSimCell uint8 = 0x71 // (tag, addr, 0) -> PRAM memory cell
)

// SimMessage is a constant-size MPC message for the simulation layer.
type SimMessage struct {
	// Dst is the item the message is addressed to — a vertex, a dart, or a
	// machine when items = P — in [0, items) of the round that reads it.
	Dst int
	// A, B are the payload words.
	A, B int64
}

// MPCRoundFunc is one simulated MPC machine's work in one round: consume
// the inbox, emit messages for the next round. The inbox holds the messages
// of the machine's items in item order; each one's Dst is the item it was
// delivered to, and within an item messages arrive in sender-machine order,
// then in send order.
type MPCRoundFunc func(machine int, inbox []SimMessage, send func(SimMessage))

// MPCRound executes one MPC round over items [0, items) on the AMPC runtime
// using the paper's §2 construction, with messages addressed to items
// rather than machines: a send becomes a write keyed by its destination
// item, and machine m reads the pairs keyed by each item of
// BlockRange(m, items, P), charged one count per item and one read per
// message. Machine
// addressing is the case items = P. Each simulated MPC round costs exactly
// one AMPC round, and the MPC model's O(S) communication limit is the
// runtime's enforced budget: a machine that sends or receives more than
// Budget() messages fails the round with ErrBudget.
func (r *Runtime) MPCRound(name string, items int, f MPCRoundFunc) error {
	return r.Round(name, func(ctx *Ctx) error {
		lo, hi := BlockRange(ctx.Machine, items, ctx.P)
		var inbox []SimMessage
		var vs []ValueOK
		for it := lo; it < hi; it++ {
			k := dds.Key{Tag: tagSimMsg, A: int64(it)}
			n := ctx.CountKey(k)
			vs = ctx.ReadIndexedMany(k, n, vs[:0])
			for i, v := range vs {
				if !v.OK {
					return fmt.Errorf("ampc: simulated inbox of item %d truncated at %d/%d", it, i, n)
				}
				inbox = append(inbox, SimMessage{Dst: it, A: v.Value.A, B: v.Value.B})
			}
		}
		if err := ctx.Err(); err != nil {
			return err // an over-budget inbox never reaches f
		}
		// Sends accumulate locally and flush through one batched write: the
		// outbox of a simulated MPC machine is its round output, and the
		// batch keeps pair order identical to writing each send directly.
		var outbox []dds.KV
		f(ctx.Machine, inbox, func(msg SimMessage) {
			outbox = append(outbox, dds.KV{
				Key:   dds.Key{Tag: tagSimMsg, A: int64(msg.Dst)},
				Value: dds.Value{A: msg.A, B: msg.B},
			})
		})
		ctx.WriteMany(outbox)
		return ctx.Err()
	})
}

// PRAM is a CREW PRAM simulated on the AMPC runtime: a shared memory of
// cells where each step reads the previous step's memory and writes the
// next. Concurrent reads are natural; writes to distinct cells are the
// caller's responsibility (CREW). One PRAM step costs one AMPC round,
// matching the paper's O(1)-rounds-per-step claim.
//
// Memory persistence uses the carry-forward pattern: each machine
// re-publishes its block of unmodified cells every step, marked as carries;
// readers prefer fresh writes over carries when both exist for a cell.
type PRAM struct {
	rt         *Runtime
	processors int
	cells      int
}

// carryMark distinguishes carried-forward cell copies from fresh writes.
const carryMark = 1

// NewPRAM initializes the shared memory with the given cell values via a
// counted publish round. Processors are multiplexed over the runtime's
// machines (the §2.1 virtual-machine construction).
func NewPRAM(rt *Runtime, processors int, memory []int64) (*PRAM, error) {
	if processors <= 0 {
		return nil, fmt.Errorf("ampc: PRAM needs at least one processor")
	}
	pairs := make([]dds.KV, len(memory))
	for i, v := range memory {
		pairs[i] = dds.KV{Key: dds.Key{Tag: tagSimCell, A: int64(i)}, Value: dds.Value{A: v}}
	}
	err := rt.Round("pram-init", func(ctx *Ctx) error {
		lo, hi := BlockRange(ctx.Machine, len(pairs), ctx.P)
		for _, kv := range pairs[lo:hi] {
			ctx.Write(kv.Key, kv.Value)
		}
		return ctx.Err()
	})
	if err != nil {
		return nil, err
	}
	return &PRAM{rt: rt, processors: processors, cells: len(memory)}, nil
}

// StepCtx is one processor's view of a PRAM step.
type StepCtx struct {
	// Proc is the processor id in [0, processors).
	Proc int

	ctx     *Ctx
	written map[int]bool
}

// Read returns the value of memory cell addr as of the step's start,
// preferring a fresh write over a carried copy when both survive from the
// previous step.
func (s *StepCtx) Read(addr int) (int64, error) {
	k := dds.Key{Tag: tagSimCell, A: int64(addr)}
	n := s.ctx.CountKey(k)
	if n == 0 {
		if err := s.ctx.Err(); err != nil {
			return 0, err
		}
		return 0, fmt.Errorf("ampc: PRAM read of unwritten cell %d", addr)
	}
	var carry int64
	sawCarry := false
	for i := 0; i < n; i++ {
		v, ok := s.ctx.ReadIndexed(k, i)
		if !ok {
			return 0, fmt.Errorf("ampc: PRAM cell %d truncated (err %v)", addr, s.ctx.Err())
		}
		if v.B != carryMark {
			return v.A, nil
		}
		carry = v.A
		sawCarry = true
	}
	if !sawCarry {
		return 0, fmt.Errorf("ampc: PRAM cell %d empty", addr)
	}
	return carry, nil
}

// Write sets memory cell addr for the next step.
func (s *StepCtx) Write(addr int, v int64) {
	s.written[addr] = true
	s.ctx.Write(dds.Key{Tag: tagSimCell, A: int64(addr)}, dds.Value{A: v})
}

// Step executes one PRAM step: every processor runs f against the previous
// step's memory; writes become visible at the next step.
func (p *PRAM) Step(name string, f func(s *StepCtx) error) error {
	return p.rt.Round(name, func(ctx *Ctx) error {
		sc := &StepCtx{ctx: ctx, written: make(map[int]bool)}
		plo, phi := BlockRange(ctx.Machine, p.processors, ctx.P)
		for proc := plo; proc < phi; proc++ {
			sc.Proc = proc
			if err := f(sc); err != nil {
				return err
			}
		}
		// Carry this machine's block of cells forward. Cells written by
		// other machines this round also get carried (we cannot see in-
		// flight writes); readers resolve the duplicate in favor of the
		// fresh value.
		lo, hi := BlockRange(ctx.Machine, p.cells, ctx.P)
		carries := make([]dds.KV, 0, hi-lo)
		for addr := lo; addr < hi; addr++ {
			if sc.written[addr] {
				continue
			}
			v, err := sc.Read(addr)
			if err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				continue // never-written cell: nothing to carry
			}
			carries = append(carries, dds.KV{
				Key:   dds.Key{Tag: tagSimCell, A: int64(addr)},
				Value: dds.Value{A: v, B: carryMark},
			})
		}
		ctx.WriteMany(carries)
		return ctx.Err()
	})
}

// Processors returns the simulated processor count.
func (p *PRAM) Processors() int { return p.processors }

// Cells returns the shared-memory size.
func (p *PRAM) Cells() int { return p.cells }

// Memory returns the current contents of the shared memory (master-side,
// uncounted).
func (p *PRAM) Memory() []int64 {
	out := make([]int64, p.cells)
	for i := range out {
		out[i] = p.readCell(i)
	}
	return out
}

func (p *PRAM) readCell(addr int) int64 {
	k := dds.Key{Tag: tagSimCell, A: int64(addr)}
	n := p.rt.Store().Count(k)
	var carry int64
	for i := 0; i < n; i++ {
		v, _ := p.rt.Store().GetIndexed(k, i)
		if v.B != carryMark {
			return v.A
		}
		carry = v.A
	}
	return carry
}

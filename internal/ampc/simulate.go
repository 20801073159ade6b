package ampc

import (
	"fmt"

	"ampc/internal/dds"
)

// This file implements the paper's §2 simulation of MPC constructively:
//
//	"It is easy to simulate every MPC algorithm in the AMPC model. Namely,
//	instead of sending a message to machine with id x, we can write a
//	key-value pair keyed by x to the DDS. In the following round, each
//	machine reads all key-value pairs keyed by its id."
//
// The simulation runs on the ordinary budget-enforced Runtime, so the
// simulated algorithms inherit the model's communication accounting. The
// MPC baselines of the paper's Figure 1 (internal/mpc) run on MPCRound.

// tagSimMsg keys simulated messages: (tag, dstItem, 0) -> message words,
// duplicated per message. It sits at the top of the algorithm tag space.
const tagSimMsg uint8 = 0x70

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
// BlockRange(m, items, P) with one ReadAll, charged one count per item and
// one read per message. Machine addressing is the case items = P. Each
// simulated MPC round costs exactly one AMPC round, and the MPC model's O(S)
// communication limit is the runtime's enforced budget: a machine that
// sends or receives more than Budget() messages fails the round with
// ErrBudget.
func (r *Runtime) MPCRound(name string, items int, f MPCRoundFunc) error {
	return r.Round(name, func(ctx *Ctx) error {
		lo, hi := BlockRange(ctx.Machine, items, ctx.P)
		var inbox []SimMessage
		var vs []ValueOK
		for it := lo; it < hi; it++ {
			k := dds.Key{Tag: tagSimMsg, A: int64(it)}
			vs = ctx.ReadAll(k, vs[:0])
			for i, v := range vs {
				if !v.OK {
					return fmt.Errorf("ampc: simulated inbox of item %d truncated at %d/%d", it, i, len(vs))
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

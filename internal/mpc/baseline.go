// Package mpc implements the classic MPC baseline algorithms that the
// paper's Figure 1 compares AMPC against.
//
// The MPC model (Karloff–Suri–Vassilvitskii / Beame–Koutris–Suciu / Goodrich
// et al.) proceeds in synchronous rounds: machines perform local computation
// and exchange messages, with per-machine communication bounded by the local
// space S. Crucially — and unlike AMPC — a machine cannot react to remote
// data within a round: everything it learns arrives at the round boundary.
// That restriction is exactly why the baselines below need Θ(log n) or Θ(D)
// rounds where the AMPC algorithms need O(1) or O(log log n).
//
// The baselines run on the AMPC runtime through the paper's §2 simulation
// of MPC, ampc.Runtime.MPCRound: each MPC round is exactly one MPCRound, a
// message is a pair keyed by the item (vertex or dart) it is addressed to,
// and the item's owner reads it in the next round. Both columns of Figure 1
// are therefore counted and budget-checked by one runtime. A baseline runs
// on P machines with S = ⌈2(n+m)/P⌉ words each and the default budget
// factor, and a machine that sends or receives more than the budget fails
// the run with ampc.ErrBudget.
//
// Each baseline keeps its state in master-side arrays, and a machine's
// round touches only the entries of the items it owns. That is also why
// the runtime injects no faults (FaultProb 0): a restarted machine would
// apply its master-state updates twice.
package mpc

import "ampc/internal/ampc"

// newRuntime returns the runtime a baseline's rounds run on: p machines
// with S = ⌈2(n+m)/p⌉ words each (at least one), for n items and m edges.
func newRuntime(p, n, m int) *ampc.Runtime {
	if p <= 0 {
		panic("mpc: P must be positive")
	}
	return ampc.New(ampc.Config{P: p, S: max(1, (2*(n+m)+p-1)/p)})
}

// byItem calls f once per item that has messages in a machine's inbox,
// with that item's messages; MPCRound delivers an inbox grouped by item.
func byItem(inbox []ampc.SimMessage, f func(item int, msgs []ampc.SimMessage)) {
	for i := 0; i < len(inbox); {
		j := i + 1
		for j < len(inbox) && inbox[j].Dst == inbox[i].Dst {
			j++
		}
		f(inbox[i].Dst, inbox[i:j])
		i = j
	}
}

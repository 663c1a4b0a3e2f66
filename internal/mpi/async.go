package mpi

import (
	"fmt"

	"repro/internal/simtime"
)

// Async support: a rank can offload work — typically a whole collective —
// onto a helper process that shares its identity (rank number, node, fabric
// endpoint, PiP environment) but runs on its own virtual clock, modelling
// the progress thread / communication offload that makes nonblocking
// collectives overlap with computation.
//
// Epoch discipline: the helper draws collective epochs from a private band
// ((1<<30) | asyncSeq<<16), disjoint from the parent's world epochs and
// from communicator windows, and consistent across ranks because MPI
// semantics keep the per-rank async sequence numbers in lockstep. A helper
// may start at most 2^16 collectives; a rank may start at most 2^14 async
// operations.

const (
	asyncEpochBase = 1 << 30
	maxAsyncSeq    = 1 << 14
	asyncEpochSpan = 1 << 16
)

// AsyncOp is a pending asynchronous operation. Complete it with Wait from
// the parent rank's process.
type AsyncOp struct {
	done *simtime.Flag
	err  any
}

// Wait blocks the parent until the helper finishes. The parent's clock
// advances to the helper's completion time if that is later — the overlap
// benefit shows up as the parent paying only the *excess* of communication
// over its own computation.
func (a *AsyncOp) Wait(r *Rank) {
	a.done.Wait(r.proc)
	if a.err != nil {
		panic(a.err)
	}
}

// Async runs body on a helper process sharing this rank's identity and
// returns immediately. The helper starts at the caller's current virtual
// time. body receives the helper's rank handle, which must be used for all
// communication inside; the parent must not issue conflicting collectives
// concurrently (matching MPI's nonblocking-collective ordering rules:
// all ranks start the same nonblocking collectives in the same order).
func (r *Rank) Async(body func(ar *Rank)) *AsyncOp {
	r.asyncSeq++
	if r.asyncSeq >= maxAsyncSeq {
		panic("mpi: rank exceeded its async-operation budget (2^14)")
	}
	op := &AsyncOp{done: &simtime.Flag{}}
	helper := *r // shares world, rank id, env, endpoint
	helper.epoch = asyncEpochBase | uint64(r.asyncSeq)<<16
	helper.epochLimit = helper.epoch + asyncEpochSpan
	// The copied matchFn closes over the parent's match fields; rebuild it
	// so the helper's receives cannot clobber a parked parent receive. The
	// request and scratch free lists likewise must not be shared with the
	// parent: the copied slices would alias one backing array.
	helper.initMatch()
	helper.reqFree = nil
	helper.scratch = nil
	r.proc.Spawn(fmt.Sprintf("rank%d/async%d", r.rank, r.asyncSeq), func(p *simtime.Proc) {
		helper.proc = p
		defer func() {
			if v := recover(); v != nil {
				op.err = v
			}
			op.done.Set(p, nil)
		}()
		body(&helper)
	})
	return op
}

package coll

import (
	"fmt"

	"repro/internal/nums"
)

// Scan and Exscan (prefix reductions) plus ReduceScatterBlock complete the
// reduction family. All use the standard MPICH algorithms and require
// commutative, associative operators (which all nums operators are).

// Scan computes the inclusive prefix reduction: view index i receives
// op(send_0, ..., send_i). Recursive doubling with ordered partial sums:
// at step k, exchange with me±2^k and fold the lower neighbour's partial
// into both the running result and the carried partial.
func Scan(v View, send, recv []byte, op nums.Op) {
	scanRecDoubling(v, send, recv, op, v.tagWindow(), false)
}

// Exscan computes the exclusive prefix: view index i receives
// op(send_0, ..., send_{i-1}); index 0's recv is left untouched (as in
// MPI, where it is undefined).
func Exscan(v View, send, recv []byte, op nums.Op) {
	scanRecDoubling(v, send, recv, op, v.tagWindow(), true)
}

func scanRecDoubling(v View, send, recv []byte, op nums.Op, tag int, exclusive bool) {
	if len(send) != len(recv) {
		panic(fmt.Sprintf("coll: scan buffer mismatch %d != %d", len(send), len(recv)))
	}
	if len(send)%nums.F64Size != 0 {
		panic(fmt.Sprintf("coll: scan buffer %dB is not a float64 vector", len(send)))
	}
	size := v.Size()
	// partial carries op over a contiguous rank interval ending at me;
	// result carries op over [0, me] (or [0, me) for exscan, valid once
	// anything has been folded in).
	partial := v.r.Scratch(len(send))
	v.memcpy(partial, send)
	result := v.r.Scratch(len(send))
	tmp := v.r.Scratch(len(send))
	haveResult := !exclusive
	if haveResult {
		v.memcpy(result, send)
	}

	step := 0
	for mask := 1; mask < size; mask <<= 1 {
		lower := v.me - mask
		upper := v.me + mask
		switch {
		case lower >= 0 && upper < size:
			v.Sendrecv(upper, tag+step, partial, lower, tag+step, tmp)
		case upper < size:
			v.Send(upper, tag+step, partial)
		case lower >= 0:
			v.Recv(lower, tag+step, tmp)
		}
		if lower >= 0 {
			// tmp covers [lower-2^k+1 .. lower]: fold below me.
			if haveResult {
				v.combine(result, tmp, op)
			} else {
				v.memcpy(result, tmp)
				haveResult = true
			}
			v.combine(partial, tmp, op)
		}
		step++
	}
	if haveResult {
		v.memcpy(recv, result)
	}
	v.r.Release(partial, result, tmp)
}

// ReduceScatterBlock reduces equal blocks across the view and leaves view
// index i with the fully reduced block i: recv holds len(send)/size bytes.
// The ring reduce-scatter phase of the large allreduce, exposed as the
// standalone MPI_Reduce_scatter_block. op must be commutative.
func ReduceScatterBlock(v View, send, recv []byte, op nums.Op) {
	size := v.Size()
	if len(send)%size != 0 || len(recv) != len(send)/size {
		panic(fmt.Sprintf("coll: reduce_scatter_block buffers %dB/%dB for %d ranks",
			len(send), len(recv), size))
	}
	if len(send)%nums.F64Size != 0 || (len(send)/size)%nums.F64Size != 0 {
		panic("coll: reduce_scatter_block blocks must be float64 vectors")
	}
	tag := v.tagWindow()
	if size == 1 {
		v.memcpy(recv, send)
		return
	}
	blockBytes := len(send) / size
	block := func(b []byte, i int) []byte { return b[i*blockBytes : (i+1)*blockBytes] }
	acc := v.r.Scratch(len(send))
	v.memcpy(acc, send)
	tmp := v.r.Scratch(blockBytes)
	left := (v.me - 1 + size) % size
	right := (v.me + 1) % size
	// After size-1 steps, rank me holds the complete block (me+1) mod
	// size; one final neighbour shuffle moves block me home.
	for s := 0; s < size-1; s++ {
		sendBlock := (v.me - s + 2*size) % size
		recvBlock := (v.me - s - 1 + 2*size) % size
		v.Sendrecv(right, tag+s, block(acc, sendBlock), left, tag+s, tmp)
		v.combine(block(acc, recvBlock), tmp, op)
	}
	own := (v.me + 1) % size
	v.Sendrecv(right, tag+size, block(acc, own), left, tag+size, recv)
	v.r.Release(acc, tmp)
}

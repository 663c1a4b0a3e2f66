package coll

import (
	"fmt"

	"repro/internal/nums"
)

// checkReduceBufs validates an allreduce buffer pair: equal length, float64
// aligned.
func checkReduceBufs(send, recv []byte) {
	if len(send) != len(recv) {
		panic(fmt.Sprintf("coll: allreduce buffer mismatch %d != %d", len(send), len(recv)))
	}
	if len(send)%nums.F64Size != 0 {
		panic(fmt.Sprintf("coll: allreduce buffer %dB is not a float64 vector", len(send)))
	}
}

// blockCounts splits elems elements into blocks pieces as evenly as possible
// and returns per-block element counts and displacements.
func blockCounts(elems, blocks int) (cnts, disps []int) {
	cnts = make([]int, blocks)
	disps = make([]int, blocks)
	base, extra := elems/blocks, elems%blocks
	off := 0
	for i := range cnts {
		cnts[i] = base
		if i < extra {
			cnts[i]++
		}
		disps[i] = off
		off += cnts[i]
	}
	return cnts, disps
}

// foldRemainder implements the standard MPI non-power-of-two preparation:
// the first 2*rem ranks pair up, even ranks donate their vector to the odd
// neighbour and go idle, and the survivors renumber into a power-of-two
// group. It returns the caller's new rank (-1 if idle) and the translation
// from new ranks back to view indices.
func foldRemainder(v View, acc []byte, op nums.Op, tag int) (newRank int, translate func(int) int) {
	size := v.Size()
	pof2 := prevPow2(size)
	rem := size - pof2
	translate = func(nr int) int {
		if nr < rem {
			return nr*2 + 1
		}
		return nr + rem
	}
	switch {
	case v.me < 2*rem && v.me%2 == 0:
		v.Send(v.me+1, tag, acc)
		return -1, translate
	case v.me < 2*rem:
		tmp := v.r.Scratch(len(acc))
		v.Recv(v.me-1, tag, tmp)
		v.combine(acc, tmp, op)
		v.r.Release(tmp)
		return v.me / 2, translate
	default:
		return v.me - rem, translate
	}
}

// unfoldRemainder delivers the final result back to the idle even ranks.
func unfoldRemainder(v View, acc []byte, tag int) {
	rem := v.Size() - prevPow2(v.Size())
	if v.me >= 2*rem {
		return
	}
	if v.me%2 == 0 {
		v.Recv(v.me+1, tag, acc)
	} else {
		v.Send(v.me-1, tag, acc)
	}
}

// AllreduceRecDoubling is the latency-optimal recursive-doubling allreduce,
// the MPI standard choice for small messages. Non-power-of-two sizes fold
// the first ranks into a power-of-two group. op must be commutative.
func AllreduceRecDoubling(v View, send, recv []byte, op nums.Op) {
	allreduceRecDoubling(v, send, recv, op, v.tagWindow())
}

func allreduceRecDoubling(v View, send, recv []byte, op nums.Op, tag int) {
	checkReduceBufs(send, recv)
	size := v.Size()
	if size == 1 {
		v.memcpy(recv, send)
		return
	}
	acc := v.r.Scratch(len(send))
	v.memcpy(acc, send)

	newRank, translate := foldRemainder(v, acc, op, tag)
	if newRank >= 0 {
		pof2 := prevPow2(size)
		tmp := v.r.Scratch(len(acc))
		mask := 1
		step := 1
		for mask < pof2 {
			peer := translate(newRank ^ mask)
			v.Sendrecv(peer, tag+step, acc, peer, tag+step, tmp)
			v.combine(acc, tmp, op)
			mask <<= 1
			step++
		}
		v.r.Release(tmp)
	}
	unfoldRemainder(v, acc, tag+phaseStride-1)
	v.memcpy(recv, acc)
	v.r.Release(acc)
}

// AllreduceRing is the bandwidth-optimal ring allreduce (ring
// reduce-scatter followed by ring allgather), the choice of mainstream
// libraries for large vectors. op must be commutative.
func AllreduceRing(v View, send, recv []byte, op nums.Op) {
	allreduceRing(v, send, recv, op, v.tagWindow())
}

func allreduceRing(v View, send, recv []byte, op nums.Op, tag int) {
	checkReduceBufs(send, recv)
	size := v.Size()
	if size == 1 {
		v.memcpy(recv, send)
		return
	}
	elems := len(send) / nums.F64Size
	cnts, disps := blockCounts(elems, size)
	block := func(b []byte, i int) []byte {
		return b[disps[i]*nums.F64Size : (disps[i]+cnts[i])*nums.F64Size]
	}
	acc := v.r.Scratch(len(send))
	v.memcpy(acc, send)
	tmp := v.r.Scratch((elems/size + 1) * nums.F64Size)

	left := (v.me - 1 + size) % size
	right := (v.me + 1) % size

	// Reduce-scatter: after size-1 steps rank me owns the fully reduced
	// block (me+1) mod size.
	for s := 0; s < size-1; s++ {
		sendBlock := (v.me - s + size*2) % size
		recvBlock := (v.me - s - 1 + size*2) % size
		in := tmp[:cnts[recvBlock]*nums.F64Size]
		v.Sendrecv(right, tag+s, block(acc, sendBlock), left, tag+s, in)
		v.combine(block(acc, recvBlock), in, op)
	}
	// Allgather the reduced blocks around the ring.
	for s := 0; s < size-1; s++ {
		sendBlock := (v.me + 1 - s + size*2) % size
		recvBlock := (v.me - s + size*2) % size
		v.Sendrecv(right, tag+phaseStride+s, block(acc, sendBlock),
			left, tag+phaseStride+s, block(acc, recvBlock))
	}
	v.memcpy(recv, acc)
	v.r.Release(acc, tmp)
}

// AllreduceRabenseifner is Rabenseifner's algorithm: recursive-halving
// reduce-scatter followed by recursive-doubling allgather — the classic
// large-message allreduce the paper cites as the traditional baseline its
// large-message design improves on. op must be commutative.
func AllreduceRabenseifner(v View, send, recv []byte, op nums.Op) {
	allreduceRabenseifner(v, send, recv, op, v.tagWindow())
}

func allreduceRabenseifner(v View, send, recv []byte, op nums.Op, tag int) {
	checkReduceBufs(send, recv)
	size := v.Size()
	elems := len(send) / nums.F64Size
	if size == 1 {
		v.memcpy(recv, send)
		return
	}
	pof2 := prevPow2(size)
	if elems < pof2 {
		// Too few elements to scatter one per process: fall back, as
		// MPICH does.
		allreduceRecDoubling(v, send, recv, op, tag)
		return
	}
	acc := v.r.Scratch(len(send))
	v.memcpy(acc, send)

	newRank, translate := foldRemainder(v, acc, op, tag)
	cnts, disps := blockCounts(elems, pof2)
	seg := func(b []byte, idx, blocks int) []byte {
		lo := disps[idx] * nums.F64Size
		n := 0
		for i := idx; i < idx+blocks; i++ {
			n += cnts[i]
		}
		return b[lo : lo+n*nums.F64Size]
	}
	sendIdx, recvIdx, lastIdx := 0, 0, pof2

	if newRank >= 0 {
		tmp := v.r.Scratch(len(acc))
		// Recursive halving reduce-scatter.
		mask := 1
		step := 1
		for mask < pof2 {
			newPeer := newRank ^ mask
			peer := translate(newPeer)
			half := pof2 / (mask * 2)
			if newRank < newPeer {
				sendIdx = recvIdx + half
			} else {
				recvIdx = sendIdx + half
			}
			var sSeg, rSeg []byte
			if newRank < newPeer {
				sSeg = seg(acc, sendIdx, lastIdx-sendIdx)
				rSeg = seg(tmp, recvIdx, sendIdx-recvIdx)
			} else {
				sSeg = seg(acc, sendIdx, recvIdx-sendIdx)
				rSeg = seg(tmp, recvIdx, lastIdx-recvIdx)
			}
			v.Sendrecv(peer, tag+step, sSeg, peer, tag+step, rSeg)
			v.combine(seg(acc, recvIdx, countBlocks(cnts, recvIdx, len(rSeg))), rSeg, op)
			sendIdx = recvIdx
			mask <<= 1
			if mask < pof2 {
				lastIdx = recvIdx + pof2/mask
			}
			step++
		}

		// Recursive doubling allgather of the reduced segments.
		mask = pof2 >> 1
		for mask > 0 {
			newPeer := newRank ^ mask
			peer := translate(newPeer)
			half := pof2 / (mask * 2)
			var sSeg, rSeg []byte
			if newRank < newPeer {
				if mask != pof2/2 {
					lastIdx = lastIdx + half
				}
				recvIdx = sendIdx + half
				sSeg = seg(acc, sendIdx, recvIdx-sendIdx)
				rSeg = seg(acc, recvIdx, lastIdx-recvIdx)
			} else {
				recvIdx = sendIdx - half
				sSeg = seg(acc, sendIdx, lastIdx-sendIdx)
				rSeg = seg(acc, recvIdx, sendIdx-recvIdx)
			}
			v.Sendrecv(peer, tag+phaseStride+step, sSeg, peer, tag+phaseStride+step, rSeg)
			if newRank > newPeer {
				sendIdx = recvIdx
			}
			mask >>= 1
			step++
		}
		v.r.Release(tmp)
	}
	unfoldRemainder(v, acc, tag+2*phaseStride-1)
	v.memcpy(recv, acc)
	v.r.Release(acc)
}

// countBlocks returns how many blocks starting at idx cover byteLen bytes.
func countBlocks(cnts []int, idx, byteLen int) int {
	want := byteLen / nums.F64Size
	n := 0
	blocks := 0
	for i := idx; n < want; i++ {
		n += cnts[i]
		blocks++
	}
	if n != want {
		panic("coll: segment does not align to block boundaries")
	}
	return blocks
}

// Barrier blocks until every rank of the view has entered it, using the
// dissemination algorithm (ceil(log2 size) rounds of zero-byte exchanges).
func Barrier(v View) {
	barrierDissemination(v, v.tagWindow())
}

func barrierDissemination(v View, tag int) {
	size := v.Size()
	empty := []byte{}
	in := []byte{}
	step := 0
	for mask := 1; mask < size; mask <<= 1 {
		dst := (v.me + mask) % size
		src := (v.me - mask + size) % size
		v.Sendrecv(dst, tag+step, empty, src, tag+step, in)
		step++
	}
}

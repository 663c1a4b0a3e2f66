package coll

import (
	"fmt"

	"repro/internal/nums"
)

// Large-message baselines used by the library profiles for the extension
// collectives: the van de Geijn broadcast (scatter + ring allgather) and
// the reduce-scatter + gather reduce, both MPICH's standard large-message
// selections.

// BcastScatterAllgather broadcasts buf from root by scattering equal chunks
// down the binomial tree and reassembling them with the ring allgather —
// bandwidth-optimal for large buffers. len(buf) must divide by the view
// size; callers fall back to the binomial tree otherwise.
func BcastScatterAllgather(v View, root int, buf []byte) {
	bcastScatterAllgather(v, root, buf, v.tagWindow())
}

func bcastScatterAllgather(v View, root int, buf []byte, tag int) {
	size := v.Size()
	if len(buf)%size != 0 {
		panic(fmt.Sprintf("coll: van de Geijn bcast needs size-divisible buffer (%dB / %d)", len(buf), size))
	}
	chunk := len(buf) / size
	piece := v.r.Scratch(chunk)
	scatterTree(v, root, buf, piece, tag)
	allgatherRing(v, piece, buf, tag+phaseStride)
	v.r.Release(piece)
}

// ReduceScatterGather reduces to root via a ring reduce-scatter followed by
// a chunk gather: after the ring pass, view index i owns the fully reduced
// block (i+1) mod size and ships it straight to the root. recv is
// significant only at root; op must be commutative.
func ReduceScatterGather(v View, root int, send, recv []byte, op nums.Op) {
	reduceScatterGather(v, root, send, recv, op, v.tagWindow())
}

// reduceScatterGather is the tag-parameterized form for use inside
// hierarchical compositions, where only a subset of ranks executes it and
// drawing a fresh epoch would desynchronize the per-rank epoch counters.
func reduceScatterGather(v View, root int, send, recv []byte, op nums.Op, tag int) {
	if v.me == root && len(recv) != len(send) {
		panic(fmt.Sprintf("coll: reduce buffer mismatch %d != %d", len(recv), len(send)))
	}
	if len(send)%nums.F64Size != 0 {
		panic(fmt.Sprintf("coll: reduce buffer %dB is not a float64 vector", len(send)))
	}
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
	for s := 0; s < size-1; s++ {
		sendBlock := (v.me - s + size*2) % size
		recvBlock := (v.me - s - 1 + size*2) % size
		in := tmp[:cnts[recvBlock]*nums.F64Size]
		v.Sendrecv(right, tag+s, block(acc, sendBlock), left, tag+s, in)
		v.combine(block(acc, recvBlock), in, op)
	}
	// View index i owns block (i+1) mod size; gather the blocks at root.
	own := (v.me + 1) % size
	gatherTag := tag + phaseStride
	if v.me == root {
		for i := 0; i < size; i++ {
			b := (i + 1) % size
			if cnts[b] == 0 {
				continue
			}
			if i == root {
				v.memcpy(block(recv, b), block(acc, b))
				continue
			}
			v.Recv(i, gatherTag+b, block(recv, b))
		}
		v.r.Release(acc, tmp)
		return
	}
	if cnts[own] > 0 {
		v.Send(root, gatherTag+own, block(acc, own))
	}
	v.r.Release(acc, tmp)
}

// ReduceHier is the leader-based reduce used by the hierarchical profiles:
// intranode reduce to the leader, a flat reduce among leaders toward the
// root's leader, then a hop to the root if it is not a leader.
func ReduceHier(r View, root int, send, recv []byte, op nums.Op, largeThreshold int) {
	requireBlock(r, "reduce")
	tag := newTagWindow(r.r)
	c := r.r.Cluster()
	checkRoot("reduce", root, c.Size())
	rootNode := c.Node(root)
	leaderOfRoot := c.Rank(rootNode, 0)

	var partial []byte // leaders only: the tree writes it only at its root
	if isLeader(r) {
		partial = r.r.Scratch(len(send))
	}
	reduceTree(NodeView(r.r), 0, send, partial, op, tag)

	target := recv
	ownTarget := r.r.Rank() == leaderOfRoot && root != leaderOfRoot
	if ownTarget {
		target = r.r.Scratch(len(send))
	}
	if isLeader(r) {
		lv := LeaderView(r.r)
		if len(send) >= largeThreshold {
			reduceScatterGather(lv, rootNode, partial, target, op, tag+phaseStride)
		} else {
			reduceTree(lv, rootNode, partial, target, op, tag+phaseStride)
		}
	}
	if root != leaderOfRoot {
		if r.r.Rank() == leaderOfRoot {
			r.r.Send(root, tag+2*phaseStride, target)
		}
		if r.Me() == root {
			r.r.Recv(leaderOfRoot, tag+2*phaseStride, recv)
		}
	}
	r.r.Release(partial)
	if ownTarget {
		r.r.Release(target)
	}
}

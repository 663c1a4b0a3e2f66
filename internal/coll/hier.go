package coll

import (
	"fmt"

	"repro/internal/nums"
	"repro/internal/topology"
)

// The hierarchical compositions mirror what Open MPI, MVAPICH2 and Intel
// MPI actually run on multi-core clusters: an intranode phase through shared
// memory to the node leader (local rank 0), an internode phase among the
// leaders only (so a single process per node drives the NIC — the
// single-object behaviour PiP-MColl's multi-object design attacks), and an
// intranode fan-out of the result.
//
// They require the Block rank layout: the internode phase moves contiguous
// per-node slabs of the buffers.

// requireBlock panics unless the cluster uses the Block layout.
func requireBlock(v View, opName string) {
	if v.r.Cluster().Layout() != topology.Block {
		panic(fmt.Sprintf("coll: hierarchical %s requires block rank layout", opName))
	}
}

// isLeader reports whether the caller is its node's leader (local rank 0).
func isLeader(v View) bool { return v.r.Local() == 0 }

// ScatterHier scatters from the world root: the root forwards the full
// buffer to its node leader if needed, leaders scatter per-node slabs over
// a binomial tree, and each leader scatters its slab within the node.
// send is significant only at root; every rank receives its chunk in recv.
func ScatterHier(r View, root int, send, recv []byte) {
	requireBlock(r, "scatter")
	tag := newTagWindow(r.r)
	c := r.r.Cluster()
	size := c.Size()
	checkRoot("scatter", root, size)
	chunk := len(recv)
	if r.me == root {
		checkChunk("scatter", size, chunk, len(send))
	}
	rootNode := c.Node(root)
	leaderOfRoot := c.Rank(rootNode, 0)
	ppn := c.PPN()

	full := send
	ownFull := r.r.Rank() == leaderOfRoot && root != leaderOfRoot
	if root != leaderOfRoot {
		// Hand the payload to the root's node leader.
		if r.me == root {
			r.r.Send(leaderOfRoot, tag, send)
		}
		if ownFull {
			full = r.r.Scratch(size * chunk)
			r.r.Recv(root, tag, full)
		}
	}

	// Internode: leaders scatter per-node slabs (ppn chunks each). Only
	// leaders hold a slab; the intranode tree reads it only at its root.
	ph := r.r.PhaseStart("leader-scatter")
	var nodeSlab []byte
	if isLeader(r) {
		nodeSlab = r.r.Scratch(ppn * chunk)
		lv := LeaderView(r.r)
		scatterTree(lv, rootNode, full, nodeSlab, tag+phaseStride)
	}
	ph.End()
	// Intranode: each leader scatters its slab.
	ph = r.r.PhaseStart("intra-scatter")
	nv := NodeView(r.r)
	scatterTree(nv, 0, nodeSlab, recv, tag+2*phaseStride)
	ph.End()
	r.r.Release(nodeSlab)
	if ownFull {
		r.r.Release(full)
	}
}

// GatherHier is the mirror: intranode gather to leaders, internode gather
// of node slabs to the root's leader, then a hop to the root if it is not a
// leader. recv is significant only at root.
func GatherHier(r View, root int, send, recv []byte) {
	requireBlock(r, "gather")
	tag := newTagWindow(r.r)
	c := r.r.Cluster()
	size := c.Size()
	checkRoot("gather", root, size)
	chunk := len(send)
	if r.me == root {
		checkChunk("gather", size, chunk, len(recv))
	}
	rootNode := c.Node(root)
	leaderOfRoot := c.Rank(rootNode, 0)
	ppn := c.PPN()

	ph := r.r.PhaseStart("intra-gather")
	var nodeSlab []byte // leaders only: the tree writes it only at its root
	if isLeader(r) {
		nodeSlab = r.r.Scratch(ppn * chunk)
	}
	nv := NodeView(r.r)
	gatherTree(nv, 0, send, nodeSlab, tag)
	ph.End()

	full := recv
	ownFull := r.r.Rank() == leaderOfRoot && root != leaderOfRoot
	if ownFull {
		full = r.r.Scratch(size * chunk)
	}
	ph = r.r.PhaseStart("leader-gather")
	if isLeader(r) {
		lv := LeaderView(r.r)
		gatherTree(lv, rootNode, nodeSlab, full, tag+phaseStride)
	}
	ph.End()
	if root != leaderOfRoot {
		if r.r.Rank() == leaderOfRoot {
			r.r.Send(root, tag+2*phaseStride, full)
		}
		if r.me == root {
			r.r.Recv(leaderOfRoot, tag+2*phaseStride, recv)
		}
	}
	r.r.Release(nodeSlab)
	if ownFull {
		r.r.Release(full)
	}
}

// BcastHier broadcasts from the world root: hop to the root's leader,
// binomial bcast among leaders, binomial bcast within each node.
func BcastHier(r View, root int, buf []byte) {
	requireBlock(r, "bcast")
	tag := newTagWindow(r.r)
	c := r.r.Cluster()
	checkRoot("bcast", root, c.Size())
	rootNode := c.Node(root)
	leaderOfRoot := c.Rank(rootNode, 0)
	if root != leaderOfRoot {
		if r.me == root {
			r.r.Send(leaderOfRoot, tag, buf)
		}
		if r.r.Rank() == leaderOfRoot {
			r.r.Recv(root, tag, buf)
		}
	}
	ph := r.r.PhaseStart("leader-bcast")
	if isLeader(r) {
		bcastTree(LeaderView(r.r), rootNode, buf, tag+phaseStride)
	}
	ph.End()
	ph = r.r.PhaseStart("intra-bcast")
	bcastTree(NodeView(r.r), 0, buf, tag+2*phaseStride)
	ph.End()
}

// AllgatherHier gathers chunks within each node, allgathers node slabs
// among leaders (algorithm chosen by total size against ringThreshold, as
// mainstream libraries tune it), then broadcasts the full buffer locally.
func AllgatherHier(r View, send, recv []byte, ringThreshold int) {
	requireBlock(r, "allgather")
	tag := newTagWindow(r.r)
	c := r.r.Cluster()
	chunk := len(send)
	checkChunk("allgather", c.Size(), chunk, len(recv))
	ppn := c.PPN()

	ph := r.r.PhaseStart("intra-gather")
	var nodeSlab []byte // leaders only: the tree writes it only at its root
	if isLeader(r) {
		nodeSlab = r.r.Scratch(ppn * chunk)
	}
	gatherTree(NodeView(r.r), 0, send, nodeSlab, tag)
	ph.End()
	ph = r.r.PhaseStart("leader-allgather")
	if isLeader(r) {
		lv := LeaderView(r.r)
		if len(recv) > ringThreshold {
			allgatherRing(lv, nodeSlab, recv, tag+phaseStride)
		} else if lv.Size()&(lv.Size()-1) == 0 {
			allgatherRecDoubling(lv, nodeSlab, recv, tag+phaseStride)
		} else {
			allgatherBruck(lv, nodeSlab, recv, tag+phaseStride)
		}
	}
	ph.End()
	ph = r.r.PhaseStart("intra-bcast")
	bcastTree(NodeView(r.r), 0, recv, tag+2*phaseStride)
	ph.End()
	r.r.Release(nodeSlab)
}

// AllreduceHier reduces within each node to the leader, allreduces among
// leaders (recursive doubling below ringThreshold, ring above), then
// broadcasts the result locally. op must be commutative.
func AllreduceHier(r View, send, recv []byte, op nums.Op, ringThreshold int) {
	requireBlock(r, "allreduce")
	tag := newTagWindow(r.r)
	checkReduceBufs(send, recv)

	ph := r.r.PhaseStart("intra-reduce")
	var partial []byte // leaders only: the tree writes it only at its root
	if isLeader(r) {
		partial = r.r.Scratch(len(send))
	}
	reduceTree(NodeView(r.r), 0, send, partial, op, tag)
	ph.End()
	ph = r.r.PhaseStart("leader-allreduce")
	if isLeader(r) {
		lv := LeaderView(r.r)
		if len(send) > ringThreshold {
			allreduceRing(lv, partial, recv, op, tag+phaseStride)
		} else {
			allreduceRecDoubling(lv, partial, recv, op, tag+phaseStride)
		}
	}
	ph.End()
	ph = r.r.PhaseStart("intra-bcast")
	bcastTree(NodeView(r.r), 0, recv, tag+3*phaseStride)
	ph.End()
	r.r.Release(partial)
}

// Package coll implements the baseline MPI collective algorithms the paper
// compares against: binomial trees (bcast, scatter, gather, reduce), the
// Bruck and recursive-doubling and ring allgathers, recursive-doubling,
// ring, and Rabenseifner allreduces, a dissemination barrier, and the
// hierarchical (leader-per-node) compositions mainstream MPI libraries use.
//
// Every algorithm works on a View — a communicator-like window over a
// subset of ranks — so the same code runs flat over the world, over one
// node's ranks, or over the per-node leaders inside hierarchical
// compositions. All algorithms assume commutative reduction operators (the
// nums operators all are).
//
// Tag discipline: each public entry point draws a fresh epoch from the rank
// and shifts it left by tagShift, giving every collective invocation a
// private tag window; internal steps and nested sub-collectives carve
// disjoint sub-windows so no two concurrent logical messages between a pair
// ever share a tag.
package coll

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/nums"
	"repro/internal/shm"
)

// tagShift sizes each collective invocation's private tag window (2^24 tags:
// enough for a flat ring over millions of ranks and nested phase offsets).
const tagShift = 24

// phaseStride separates nested sub-collectives' tag ranges within a window.
const phaseStride = 1 << 20

// View is a communicator-like window over a subset of the world's ranks.
// The zero value is invalid; construct with World, NodeView, LeaderView or
// CommView.
type View struct {
	r      *mpi.Rank
	ranks  []int // world ranks in view order (read-only); nil means the whole world
	me     int   // caller's index within the view
	window func() int
}

// CommView adapts an mpi communicator for the collective algorithms. Tag
// windows come from the communicator's private space, so concurrent
// collectives on disjoint communicators cannot interfere even when the
// members' world epoch counters have diverged.
func CommView(c *mpi.Comm) View {
	var ranks []int
	if c.Size() != c.World().Size() {
		ranks = c.WorldRanks()
	}
	return View{r: c.World(), ranks: ranks, me: c.Rank(), window: c.NextWindow}
}

// World returns the view spanning every rank.
func World(r *mpi.Rank) View {
	return View{r: r, me: r.Rank()}
}

// NodeView returns the view over the caller's node, ordered by local rank.
// It and LeaderView share the cluster's precomputed rank tables, which
// views only read.
func NodeView(r *mpi.Rank) View {
	return View{r: r, ranks: r.Cluster().NodeRanks(r.Node()), me: r.Local()}
}

// LeaderView returns the view over each node's local rank 0, ordered by
// node id. The caller must itself be a leader to communicate through it.
func LeaderView(r *mpi.Rank) View {
	return View{r: r, ranks: r.Cluster().Leaders(), me: r.Node()}
}

// Size returns the number of ranks in the view.
func (v View) Size() int {
	if v.ranks == nil {
		return v.r.Size()
	}
	return len(v.ranks)
}

// Me returns the caller's index within the view.
func (v View) Me() int { return v.me }

// Rank returns the underlying MPI rank.
func (v View) Rank() *mpi.Rank { return v.r }

// worldRank translates a view index to a world rank.
func (v View) worldRank(i int) int {
	if v.ranks == nil {
		return i
	}
	if i < 0 || i >= len(v.ranks) {
		panic(fmt.Sprintf("coll: view index %d outside view of %d", i, len(v.ranks)))
	}
	return v.ranks[i]
}

// Isend starts a nonblocking send to view index dst.
func (v View) Isend(dst, tag int, data []byte) *mpi.Request {
	return v.r.Isend(v.worldRank(dst), tag, data)
}

// Irecv posts a nonblocking receive from view index src.
func (v View) Irecv(src, tag int, buf []byte) *mpi.Request {
	return v.r.Irecv(v.worldRank(src), tag, buf)
}

// Send is a blocking send to view index dst.
func (v View) Send(dst, tag int, data []byte) { v.r.Send(v.worldRank(dst), tag, data) }

// Recv is a blocking receive from view index src.
func (v View) Recv(src, tag int, buf []byte) int {
	return v.r.Recv(v.worldRank(src), tag, buf)
}

// Sendrecv exchanges with two view peers without deadlock.
func (v View) Sendrecv(dst, sendTag int, sendData []byte, src, recvTag int, recvBuf []byte) int {
	return v.r.Sendrecv(v.worldRank(dst), sendTag, sendData, v.worldRank(src), recvTag, recvBuf)
}

// shm returns the caller's node shared-memory domain for local cost charges.
func (v View) shm() *shm.Node { return v.r.Env().Shm() }

// combine folds src into acc with the reduction cost charged.
func (v View) combine(acc, src []byte, op nums.Op) {
	v.shm().Combine(v.r.Proc(), acc, src, op)
}

// memcpy performs a charged local copy.
func (v View) memcpy(dst, src []byte) { v.shm().Memcpy(v.r.Proc(), dst, src) }

// newTagWindow draws the invocation-private tag window base.
func newTagWindow(r *mpi.Rank) int { return int(r.NextEpoch()) << tagShift }

// tagWindow draws a window from the view's source: the communicator's
// private space for CommViews, the world epoch counter otherwise.
func (v View) tagWindow() int {
	if v.window != nil {
		return v.window()
	}
	return newTagWindow(v.r)
}

// checkChunk validates the usual "recv is size chunks of send" contract.
func checkChunk(opName string, size, chunk, total int) {
	if chunk < 0 || total != size*chunk {
		panic(fmt.Sprintf("coll: %s buffer mismatch: %d ranks x %dB chunk vs %dB total",
			opName, size, chunk, total))
	}
}

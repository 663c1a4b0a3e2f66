package mpi

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/pip"
	"repro/internal/shm"
	"repro/internal/simtime"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Rank is one simulated MPI process. All methods must be called from the
// rank's own process body (the function passed to World.Run).
type Rank struct {
	world *World
	rank  int
	node  int
	local int
	env   *pip.NodeEnv
	ep    fabric.Endpoint
	proc  *simtime.Proc
	epoch uint64
	// epochLimit caps epoch draws for async helper ranks (0 = parent,
	// capped at the async band instead); asyncSeq numbers this rank's
	// async operations.
	epochLimit uint64
	asyncSeq   int
	// noise is the rank's OS-noise cursor (nil fault-free); pending is
	// the blocking op the watchdog names in a deadlock diagnosis.
	noise   *fault.RankNoise
	pending pendingOp
	// agreeing marks a park inside a Shrink/Agree round, which the
	// quiescence failure detector must not fail (see World.onQuiesce).
	agreeing bool
	// matchSrc/matchTag parameterize matchFn, the rank's reusable receive
	// predicate (see match) — one closure per rank instead of one per
	// blocking receive or probe.
	matchSrc int
	matchTag int
	matchFn  func(any) bool
	// reqFree recycles completed Requests (see getReq/putReq).
	reqFree []*Request
	// scratch is the rank's free list of temporary buffers (see Scratch);
	// only the rank's own process touches it, so it needs no lock.
	scratch [][]byte
}

// getReq returns a zeroed request, reusing one recycled by Wait when
// available.
func (r *Rank) getReq() *Request {
	if n := len(r.reqFree); n > 0 {
		q := r.reqFree[n-1]
		r.reqFree[n-1] = nil
		r.reqFree = r.reqFree[:n-1]
		*q = Request{}
		return q
	}
	return &Request{}
}

// putReq recycles a completed request. The request's fields are preserved
// until getReq hands it out again, so the MPI idiom of reading N/Source/Tag
// right after Wait keeps working; a request must not be read after the rank
// issues another operation.
func (r *Rank) putReq(q *Request) { r.reqFree = append(r.reqFree, q) }

// initMatch builds the rank's cached receive predicate. It must close over
// this specific Rank struct, so async helpers (which copy the parent by
// value) rebuild it for themselves.
func (r *Rank) initMatch() {
	r.matchFn = func(it any) bool {
		env := envOf(it)
		return (r.matchSrc == AnySource || env.src == r.matchSrc) &&
			(r.matchTag == AnyTag || env.tag == r.matchTag)
	}
}

// match arms the cached predicate for a (source, tag) pair and returns it.
// The predicate may be held by a mailbox only while this rank is parked on
// that mailbox, which the blocking structure of Get/Peek guarantees; a rank
// has at most one blocking receive or probe in flight.
func (r *Rank) match(src, tag int) func(any) bool {
	r.matchSrc, r.matchTag = src, tag
	return r.matchFn
}

// Rank returns the process's global rank.
func (r *Rank) Rank() int { return r.rank }

// Size returns the number of ranks in the world.
func (r *Rank) Size() int { return r.world.cluster.Size() }

// Node returns the node the rank lives on.
func (r *Rank) Node() int { return r.node }

// Local returns the rank's local index on its node (0..PPN-1).
func (r *Rank) Local() int { return r.local }

// Cluster returns the world's cluster description.
func (r *Rank) Cluster() *topology.Cluster { return r.world.cluster }

// World returns the enclosing world.
func (r *Rank) World() *World { return r.world }

// Env returns the PiP node environment shared by the rank's node — the
// posting board, node barrier and shared-memory cost domain PiP-MColl's
// algorithms program against directly.
func (r *Rank) Env() *pip.NodeEnv { return r.env }

// Proc returns the underlying simulated process (for clock reads and
// compute-cost charging).
func (r *Rank) Proc() *simtime.Proc { return r.proc }

// Now returns the rank's current virtual time.
func (r *Rank) Now() simtime.Time { return r.proc.Now() }

// NextEpoch returns a fresh collective epoch. MPI semantics guarantee all
// ranks invoke collectives in the same order, so per-rank counters stay in
// lockstep and the returned epoch identifies the same invocation everywhere.
// Async helpers draw from a private band (see Async); parents are capped
// below it so the bands can never collide.
func (r *Rank) NextEpoch() uint64 {
	r.epoch++
	switch {
	case r.epochLimit > 0 && r.epoch >= r.epochLimit:
		panic("mpi: async helper exceeded its collective budget (2^16)")
	case r.epochLimit == 0 && r.epoch >= asyncEpochBase:
		panic("mpi: rank exceeded the world collective budget (2^30)")
	}
	return r.epoch
}

// HarnessBarrier synchronizes all ranks at zero virtual cost. It is not an
// MPI operation: the benchmark harness uses it to separate warm-up from
// measurement and to align iteration starts, exactly like the paper's
// two-stage microbenchmark methodology (which excludes barrier cost).
// Async helpers must not call it (the barrier counts world ranks only).
func (r *Rank) HarnessBarrier() {
	if r.epochLimit > 0 {
		panic("mpi: HarnessBarrier called from an async helper")
	}
	r.world.harness.Wait(r.proc)
}

// envelope is one in-flight point-to-point message. Envelopes are pooled on
// the World (getEnv/putEnv): refs counts outstanding handles — the in-flight
// delivery plus, for internode rendezvous, the sender's request — and the
// envelope returns to the freelist when the count reaches zero. own is the
// envelope's scratch buffer for snapshot/bounce payloads; it stays attached
// across recycles (or is traded to another envelope, see envScratch) so
// steady-state sends stop allocating payload copies.
type envelope struct {
	src, dst int
	tag      int
	n        int
	data     []byte        // snapshot, scratch, or live reference when zeroCopy
	own      []byte        // pooled scratch backing data on buffered paths
	zeroCopy bool          // intranode rendezvous: data points into sender's buffer
	consumed bool          // receiver has finished its copy out of data
	refs     int8          // outstanding handles; World.putEnv frees at zero
	srcLocal int           // sender's local rank, for mechanism cost accounting
	done     *simtime.Flag // set by the receiver when a zeroCopy transfer finishes
	msg      int           // recorder message id for internode sends, else -1
}

// envSwapScan bounds how many pooled envelopes envScratch inspects for a
// buffer to trade: the most recently freed ones, which are the likeliest to
// have carried a message of the same size.
const envSwapScan = 8

// envScratch returns env's own buffer resized to n bytes. When env's buffer
// is too small it first trades buffers with a recently freed envelope that
// has the capacity — a free envelope's buffer is referenced by nothing — so
// large buffers follow the large messages instead of sitting on envelopes
// that carry small ones, and the pool stops allocating once it has one
// buffer per concurrent large message.
func (w *World) envScratch(env *envelope, n int) []byte {
	if cap(env.own) < n {
		free := w.envFree
		for i := len(free) - 1; i >= 0 && i >= len(free)-envSwapScan; i-- {
			if cap(free[i].own) >= n {
				env.own, free[i].own = free[i].own, env.own
				break
			}
		}
		if cap(env.own) < n {
			env.own = make([]byte, n)
		}
	}
	env.own = env.own[:n]
	return env.own
}

// envOf extracts the envelope from a mailbox item, which is either a fabric
// packet (internode) or a bare envelope (intranode).
func envOf(item any) *envelope {
	switch v := item.(type) {
	case fabric.Packet:
		return v.Payload.(*envelope)
	case *envelope:
		return v
	default:
		panic(fmt.Sprintf("mpi: foreign item in rank mailbox: %T", item))
	}
}

// reqKind discriminates Request completion styles.
type reqKind int

const (
	reqSendAt   reqKind = iota // complete at a known virtual time
	reqSendFlag                // complete when the receiver sets the flag
	reqRecv                    // complete by matching an incoming envelope
)

// Request is a pending nonblocking operation. Complete it with Rank.Wait or
// Rank.Waitall.
type Request struct {
	kind   reqKind
	doneAt simtime.Time
	flag   *simtime.Flag
	src    int
	tag    int
	buf    []byte
	n      int
	done   bool
	str    *fabric.SendTrace // stage timings of an internode send, when recorded
	env    *envelope         // sender handle on an internode rendezvous envelope
}

// N returns the number of bytes transferred, valid after completion (for
// receive requests it is the matched message's size).
func (q *Request) N() int { return q.n }

// Source returns the matched sender's rank, valid after a receive request
// completes (useful with AnySource).
func (q *Request) Source() int { return q.src }

// Tag returns the matched message's tag, valid after a receive request
// completes (useful with AnyTag).
func (q *Request) Tag() int { return q.tag }

// Isend starts a nonblocking send of data to rank dst with the given tag and
// returns a request that completes when the source buffer is reusable.
func (r *Rank) Isend(dst, tag int, data []byte) *Request {
	if dst < 0 || dst >= r.Size() {
		panic(fmt.Sprintf("mpi: Isend to rank %d in world of %d", dst, r.Size()))
	}
	if r.world.opGate {
		r.opBoundary("send", dst)
	}
	if r.noise != nil {
		r.chargeNoise()
	}
	intranode := r.world.cluster.SameNode(r.rank, dst)
	if r.world.traceP2P() {
		r.world.p2p(trace.Event{Kind: trace.KindSend, At: r.proc.Now(),
			Src: r.rank, Dst: dst, Tag: tag, Bytes: len(data), Intranode: intranode})
	}
	t0 := r.proc.Now()
	var q *Request
	if intranode {
		q = r.isendIntranode(dst, tag, data)
	} else {
		q = r.isendInternode(dst, tag, data)
	}
	if r.world.full() {
		r.world.rec.ProcSpan(r.proc, fmt.Sprintf("send→%d %dB", dst, len(data)),
			"p2p", t0, r.proc.Now())
	}
	return q
}

// isendInternode injects the payload into the fabric. Eager payloads are
// snapshotted into the envelope's pooled scratch (the NIC buffers them, and
// the sender may reuse its buffer the moment the local queue stage is done).
// Rendezvous payloads stay a live reference — the O(bytes) copy is skipped —
// because the source buffer is pinned until the send completes; if the
// receiver has not copied the data by the time the sender's Wait releases
// the buffer, Wait snapshots it then (see Rank.Wait).
func (r *Rank) isendInternode(dst, tag int, data []byte) *Request {
	env := r.world.getEnv()
	env.src, env.dst, env.tag, env.n, env.msg = r.rank, dst, tag, len(data), -1
	rendezvous := len(data) > r.world.cfg.Fabric.EagerLimit
	if rendezvous {
		env.data = data
		env.refs = 2 // in-flight delivery + the sender's request handle
	} else {
		snap := r.world.envScratch(env, len(data))
		copy(snap, data)
		env.data = snap
		env.refs = 1
	}
	dstNode, dstLocal := r.world.cluster.Place(dst)
	doneAt, str := r.world.fab.SendTraced(r.proc, r.ep,
		fabric.Endpoint{Node: dstNode, Queue: dstLocal}, len(data), env)
	q := r.getReq()
	q.kind, q.doneAt = reqSendAt, doneAt
	if rendezvous {
		q.env = env
	}
	if r.world.full() {
		rec := r.world.rec
		// The synchronous CPU cost lands on the sender's own timeline; the
		// full stage decomposition rides the message for the receive side
		// and the drain charged at Wait.
		rec.PathSegFor(r.proc, "send-cpu", str.Issue, str.CPUDone)
		env.msg = rec.AddMessage(obs.Message{
			SrcProc: r.proc.ID(), DstProc: dst, Bytes: len(data), Tag: tag,
			Issue: str.Issue, Ready: str.RxQueueDone, Stages: str.Stages(),
		})
		traced := str // a copy, so untraced sends keep str off the heap
		q.str = &traced
	}
	return q
}

// isendIntranode moves data through the node's shared memory. Small payloads
// take the double-copy eager bounce path; large ones are posted zero-copy
// and transferred by the receiver via the configured mechanism.
func (r *Rank) isendIntranode(dst, tag int, data []byte) *Request {
	cfg := r.world.cfg
	shmNode := r.env.Shm()
	if cfg.Mechanism == shm.PiP {
		// PiP transports synchronize message sizes before any data
		// moves (the overhead PiP-MColl is designed to avoid).
		shmNode.SizeSync(r.proc)
	}
	shmNode.Handoff(r.proc) // notify the peer: cacheline ping
	_, dstLocal := r.world.cluster.Place(dst)
	env := r.world.getEnv()
	env.src, env.dst, env.tag, env.n = r.rank, dst, tag, len(data)
	env.srcLocal, env.msg, env.refs = r.local, -1, 1
	if len(data) <= cfg.IntranodeEager {
		// Eager: copy into the pooled bounce buffer now; receiver copies out.
		bounce := r.world.envScratch(env, len(data))
		shmNode.Memcpy(r.proc, bounce, data)
		env.data = bounce
		r.world.fab.Inbox(fabric.Endpoint{Node: r.node, Queue: dstLocal}).Put(r.proc, env)
		q := r.getReq()
		q.kind, q.doneAt = reqSendAt, r.proc.Now()
		return q
	}
	// Rendezvous: expose the live buffer; the receiver performs the
	// single-copy transfer and signals completion. The flag must be a fresh
	// allocation — the request holds it past the envelope's recycle.
	env.data, env.zeroCopy, env.done = data, true, &simtime.Flag{}
	r.world.fab.Inbox(fabric.Endpoint{Node: r.node, Queue: dstLocal}).Put(r.proc, env)
	q := r.getReq()
	q.kind, q.flag = reqSendFlag, env.done
	return q
}

// AnySource matches a receive against any sender (MPI_ANY_SOURCE).
const AnySource = -1

// AnyTag matches a receive or probe against any tag (MPI_ANY_TAG).
const AnyTag = -1

// Irecv posts a nonblocking receive for a message from src (or AnySource)
// with the given tag into buf. Matching happens when the request is waited
// on.
func (r *Rank) Irecv(src, tag int, buf []byte) *Request {
	if src != AnySource && (src < 0 || src >= r.Size()) {
		panic(fmt.Sprintf("mpi: Irecv from rank %d in world of %d", src, r.Size()))
	}
	q := r.getReq()
	q.kind, q.src, q.tag, q.buf = reqRecv, src, tag, buf
	return q
}

// Wait blocks until the request completes and returns the transferred byte
// count. Waiting on an already-completed request returns immediately.
func (r *Rank) Wait(q *Request) int {
	if q.done {
		return q.n
	}
	switch q.kind {
	case reqSendAt:
		t0 := r.proc.Now()
		r.proc.AdvanceTo(q.doneAt)
		if env := q.env; env != nil {
			// Internode rendezvous: the source buffer becomes reusable when
			// Wait returns. If the receiver's copy has not executed yet (the
			// engine may run it later in real order even though its virtual
			// time is covered by doneAt), preserve the bytes by snapshotting
			// into the envelope's pooled scratch now; if it has, the data is
			// already out and no copy is ever made.
			q.env = nil
			if !env.consumed {
				snap := r.world.envScratch(env, env.n)
				copy(snap, env.data)
				env.data = snap
			}
			r.world.putEnv(env)
		}
		if q.str != nil && q.doneAt > t0 && r.world.full() {
			// The sender's clock jumped over the message's in-flight
			// stages; attribute the drained interval stage by stage.
			for _, st := range q.str.Stages() {
				lo, hi := st.Start, st.End
				if lo < t0 {
					lo = t0
				}
				if hi > q.doneAt {
					hi = q.doneAt
				}
				if hi > lo {
					r.world.rec.PathSegFor(r.proc, st.Cat, lo, hi)
				}
			}
		}
	case reqSendFlag:
		r.setPending("send-rendezvous", -1, -1)
		q.flag.Wait(r.proc)
		r.clearPending()
	case reqRecv:
		r.completeRecv(q)
	}
	q.done = true
	r.putReq(q)
	return q.n
}

// Waitall completes every request. Receive requests are progressed before
// send requests so that matched zero-copy sends (including self-sends) can
// complete; within each class, requests finish in argument order.
func (r *Rank) Waitall(reqs ...*Request) {
	for _, q := range reqs {
		if q.kind == reqRecv {
			r.Wait(q)
		}
	}
	for _, q := range reqs {
		r.Wait(q)
	}
}

// completeRecv blocks for a matching envelope and finishes the transfer:
// copy-out costs for eager paths, the mechanism's single-copy cost for
// intranode rendezvous, and truncation checking throughout.
func (r *Rank) completeRecv(q *Request) {
	if r.world.opGate {
		r.opBoundary("recv", q.src) // AnySource (-1) never fails fast
	}
	if r.noise != nil {
		r.chargeNoise()
	}
	t0 := r.proc.Now()
	match := r.match(q.src, q.tag)
	r.setPending("recv", q.src, q.tag)
	wildcard := q.src == AnySource || q.tag == AnyTag
	inbox := r.world.fab.Inbox(r.ep)
	var item any
	switch d := r.world.cfg.OpTimeout; {
	case d > 0 && r.world.exploring:
		// Under exploration the timeout is a choice, not a race: with no
		// queued match, the chooser decides whether the watchdog fires here
		// or the receive blocks optimistically (a block that never completes
		// surfaces as a certified DeadlockError).
		deadline := t0.Add(d)
		if _, ok := inbox.TryPeek(r.proc, match); !ok {
			if r.world.engine.Chooser().Choose(simtime.ChooseTimeout, timeoutCands) == 1 {
				r.proc.AdvanceTo(deadline)
				panic(&TimeoutError{Rank: r.rank, Op: "recv", Source: q.src, Tag: q.tag,
					Deadline: deadline, Schedule: r.world.engine.Certificate()})
			}
		}
		item = r.getMatch(inbox, match, wildcard)
	case d > 0:
		deadline := t0.Add(d)
		got, ok := inbox.GetDeadline(r.proc, match, deadline)
		if !ok {
			panic(&TimeoutError{Rank: r.rank, Op: "recv",
				Source: q.src, Tag: q.tag, Deadline: deadline})
		}
		item = got
	default:
		item = r.getMatch(inbox, match, wildcard)
	}
	r.clearPending()
	env := envOf(item)
	if r.world.full() && env.msg >= 0 {
		// Tie the wait (blocked or clock-jumped) to the matched message so
		// the critical path can route through the fabric to the sender.
		r.world.rec.RecvWait(r.proc, t0, r.proc.Now(), env.msg)
	}
	if env.n > len(q.buf) {
		panic(fmt.Sprintf("mpi: truncation on recv: %dB message from rank %d (tag %d) into %dB buffer",
			env.n, env.src, env.tag, len(q.buf)))
	}
	cfg := r.world.cfg
	shmNode := r.env.Shm()
	intranode := r.world.cluster.SameNode(env.src, r.rank)
	switch {
	case intranode && env.zeroCopy:
		if cfg.Mechanism == shm.PiP {
			shmNode.SizeSync(r.proc)
		}
		copy(q.buf, env.data)
		shmNode.ChargeTransfer(r.proc, cfg.Mechanism, env.srcLocal, r.local, env.n)
		env.done.Set(r.proc, nil)
	case intranode:
		if cfg.Mechanism == shm.PiP {
			shmNode.SizeSync(r.proc)
		}
		shmNode.Memcpy(r.proc, q.buf[:env.n], env.data) // bounce copy-out
	default:
		// Internode: eager messages are copied out of the receive
		// buffer pool; rendezvous payloads landed in place.
		if env.n <= cfg.Fabric.EagerLimit {
			shmNode.Memcpy(r.proc, q.buf[:env.n], env.data)
		} else {
			copy(q.buf, env.data)
			env.consumed = true // sender's Wait may skip its snapshot
		}
	}
	q.n = env.n
	q.src = env.src
	q.tag = env.tag
	if r.world.traceP2P() {
		r.world.p2p(trace.Event{Kind: trace.KindRecv, At: r.proc.Now(),
			Src: env.src, Dst: r.rank, Tag: env.tag, Bytes: env.n, Intranode: intranode})
	}
	if r.world.full() {
		r.world.rec.ProcSpan(r.proc, fmt.Sprintf("recv←%d %dB", env.src, env.n),
			"p2p", t0, r.proc.Now())
	}
	r.world.putEnv(env) // the receive owns the last (or only) delivery handle
}

// timeoutCands are the two outcomes of an enumerated OpTimeout choice:
// 0 = block (the timeout does not fire), 1 = fire the watchdog now.
var timeoutCands = []simtime.Cand{{Proc: -1}, {Proc: -1}}

// getMatch takes the matching envelope off the inbox. Wildcard receives
// under exploration expose the queued-match selection as a ChooseMatch
// point; exact-match receives always take the oldest (MPI's non-overtaking
// rule leaves them no freedom).
func (r *Rank) getMatch(inbox *simtime.Mailbox, match func(any) bool, wildcard bool) any {
	if r.world.exploring && wildcard {
		return inbox.GetChoose(r.proc, match)
	}
	return inbox.Get(r.proc, match)
}

// opBoundary is the per-operation hook run at every MPI operation entry
// (sends, receive completions, probes, agreement arrivals) when the world
// has kills declared or a chooser attached. It delivers this rank's own
// pending death, counts the boundary, executes op-indexed kills
// (fault.KillOp) — dying at the boundary, or arming a mid-op death that the
// next boundary/resume or the quiescence detector delivers — and fails fast
// against a peer already known dead.
func (r *Rank) opBoundary(op string, peer int) {
	w := r.world
	if w.hasKills {
		r.checkSelfKill()
	}
	k := w.opCount[r.rank]
	w.opCount[r.rank] = k + 1
	if w.killOp[r.rank] == k {
		if w.killAfter[r.rank] {
			w.killAt[r.rank] = r.proc.Now()
		} else {
			w.killRank(r, r.proc.Now())
			panic(rankKilled{r.rank})
		}
	}
	if w.hasKills {
		r.checkPeerDead(op, peer)
	}
}

// Status describes a pending message observed by Probe/Iprobe.
type Status struct {
	Source int
	Tag    int
	Bytes  int
}

// Probe blocks until a message from src (or AnySource) with the given tag
// is pending, and returns its envelope metadata without consuming it — the
// classic pattern for sizing a receive buffer before Recv.
func (r *Rank) Probe(src, tag int) Status {
	if src != AnySource && (src < 0 || src >= r.Size()) {
		panic(fmt.Sprintf("mpi: Probe from rank %d in world of %d", src, r.Size()))
	}
	if r.world.opGate {
		r.opBoundary("probe", src)
	}
	if r.noise != nil {
		r.chargeNoise()
	}
	r.setPending("probe", src, tag)
	inbox := r.world.fab.Inbox(r.ep)
	var item any
	if r.world.exploring && (src == AnySource || tag == AnyTag) {
		item = inbox.PeekChoose(r.proc, r.match(src, tag))
	} else {
		item = inbox.Peek(r.proc, r.match(src, tag))
	}
	r.clearPending()
	env := envOf(item)
	return Status{Source: env.src, Tag: env.tag, Bytes: env.n}
}

// Iprobe reports whether a matching message is already pending, without
// blocking or consuming it. Like any non-blocking cross-process read in the
// simulation, it may report false for a message whose delivery is scheduled
// at an earlier virtual time but has not executed yet; the blocking Probe
// has no such caveat.
func (r *Rank) Iprobe(src, tag int) (Status, bool) {
	if src != AnySource && (src < 0 || src >= r.Size()) {
		panic(fmt.Sprintf("mpi: Iprobe from rank %d in world of %d", src, r.Size()))
	}
	item, ok := r.world.fab.Inbox(r.ep).TryPeek(r.proc, r.match(src, tag))
	if !ok {
		return Status{}, false
	}
	env := envOf(item)
	return Status{Source: env.src, Tag: env.tag, Bytes: env.n}, true
}

// Send is a blocking send: it returns when the source buffer is reusable.
func (r *Rank) Send(dst, tag int, data []byte) {
	r.Wait(r.Isend(dst, tag, data))
}

// Recv is a blocking receive; it returns the received byte count.
func (r *Rank) Recv(src, tag int, buf []byte) int {
	return r.Wait(r.Irecv(src, tag, buf))
}

// Sendrecv exchanges messages with two (possibly different) peers without
// deadlocking, the workhorse of ring and Bruck algorithms.
func (r *Rank) Sendrecv(dst, sendTag int, sendData []byte, src, recvTag int, recvBuf []byte) int {
	rq := r.Irecv(src, recvTag, recvBuf)
	sq := r.Isend(dst, sendTag, sendData)
	r.Waitall(rq, sq)
	return rq.n
}

// Phase is an open display span on the rank's track, closed with End. The
// zero value (returned when no full recorder is attached) is a no-op, so
// instrumented algorithms cost nothing un-observed.
type Phase struct {
	r     *Rank
	name  string
	cat   string
	start simtime.Time
	on    bool
}

// Traced reports whether full-fidelity span recording is active. Callers
// that build span names dynamically (fmt.Sprintf etc.) should check it
// first so untraced runs skip the formatting allocation entirely.
func (r *Rank) Traced() bool { return r.world.full() }

// SpanStart opens a display span on the rank's track, e.g. a collective
// ("allgather 1KiB") or an algorithm phase. Nesting is by interval: close the
// inner phase before the outer and the viewer renders the hierarchy.
func (r *Rank) SpanStart(name, cat string) Phase {
	if r.world.full() {
		return Phase{r: r, name: name, cat: cat, start: r.proc.Now(), on: true}
	}
	return Phase{}
}

// PhaseStart opens an algorithm-phase span (category "phase").
func (r *Rank) PhaseStart(name string) Phase { return r.SpanStart(name, "phase") }

// End closes the span at the rank's current time.
func (ph Phase) End() {
	if ph.on {
		ph.r.world.rec.ProcSpan(ph.r.proc, ph.name, ph.cat, ph.start, ph.r.proc.Now())
	}
}

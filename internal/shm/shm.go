// Package shm models the intranode data paths the paper compares: PiP
// userspace shared address space, POSIX shared-memory bounce buffers, and
// the kernel-assisted mechanisms CMA, XPMEM, KNEM and LiMiC.
//
// Section II of the paper characterizes each mechanism by its copy count and
// system-call profile; those characteristics are exactly this package's cost
// model:
//
//	PiP    — single userspace copy, no syscall; a per-message size
//	         synchronization when used as a drop-in MPI transport
//	         (PiP-MPICH), which PiP-MColl's algorithms avoid.
//	POSIX  — double copy through a bounce buffer (copy-in + copy-out),
//	         no per-message syscall: fast for tiny messages, poor for
//	         medium/large ones.
//	CMA    — single copy via process_vm_readv: one syscall (plus page
//	         faulting) on every transfer.
//	XPMEM  — data sharing: an attach syscall the first time a peer's
//	         buffer region is mapped, then single userspace copies.
//	KNEM/LiMiC — kernel module data exchange: registration plus a
//	         syscall-driven copy per transfer.
//
// Copies are real (bytes actually move through Go slices) so correctness is
// testable; costs are charged to the calling process's virtual clock.
package shm

import (
	"fmt"
	"math"

	"repro/internal/nums"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// Mechanism selects an intranode data path.
type Mechanism int

const (
	// PiP is the Process-in-Process shared address space: peers read and
	// write each other's memory directly in userspace.
	PiP Mechanism = iota
	// POSIX is a POSIX shared-memory bounce-buffer transport.
	POSIX
	// CMA is Cross Memory Attach (process_vm_readv/writev).
	CMA
	// XPMEM is the data-sharing kernel module with expose/attach.
	XPMEM
	// KNEM is the kernel-assisted data-exchange module (LiMiC behaves
	// identically at this model's granularity).
	KNEM
)

// String returns the mechanism's conventional name.
func (m Mechanism) String() string {
	switch m {
	case PiP:
		return "PiP"
	case POSIX:
		return "POSIX-SHMEM"
	case CMA:
		return "CMA"
	case XPMEM:
		return "XPMEM"
	case KNEM:
		return "KNEM"
	default:
		return fmt.Sprintf("Mechanism(%d)", int(m))
	}
}

// Params calibrate the intranode memory system of one node. Defaults (see
// DefaultParams) approximate a Xeon E5-2695v4 Broadwell socket.
type Params struct {
	// CopyBandwidth is the effective single-core memcpy bandwidth in
	// bytes/s (the Hockney 1/β_r).
	CopyBandwidth float64
	// ReduceBandwidth is the single-core streaming reduction speed in
	// bytes/s (the paper's 1/γ).
	ReduceBandwidth float64
	// Latency is the base intranode handoff latency α_r: cacheline
	// ping-pong to notify a peer.
	Latency simtime.Duration
	// SyscallCost is charged per kernel crossing (CMA, KNEM transfers;
	// XPMEM attach uses AttachCost instead).
	SyscallCost simtime.Duration
	// PageFaultCost is charged per kernel-assisted transfer to model the
	// page pinning/fault overhead the paper attributes to CMA and KNEM.
	PageFaultCost simtime.Duration
	// AttachCost is the one-time XPMEM expose+attach cost per
	// (source local rank, destination local rank) pair.
	AttachCost simtime.Duration
	// RegisterCost is KNEM/LiMiC's per-transfer buffer registration.
	RegisterCost simtime.Duration
	// PiPSizeSync is the per-message size-synchronization overhead PiP
	// imposes when used as a drop-in MPI transport: sender and receiver
	// must agree on the message size before data moves. PiP-MColl's
	// algorithms amortize this via one-shot address posting.
	PiPSizeSync simtime.Duration
	// PostCost is the cost of posting an address/flag to peers in the
	// PiP shared address space (one store plus making it visible).
	PostCost simtime.Duration
	// NodeMemBandwidth optionally caps the node's aggregate copy/reduce
	// bandwidth in bytes/s: when many cores stream concurrently, each
	// operation finishes no earlier than the shared memory system allows
	// (max of its per-core time and its slot on the aggregate port).
	// Zero disables the model (per-core costs only), the default — the
	// paper's Hockney analysis uses per-core β_r, and all recorded
	// experiments run without contention.
	NodeMemBandwidth float64
}

// DefaultParams returns the Broadwell-like calibration used by the paper
// experiments.
func DefaultParams() Params {
	return Params{
		CopyBandwidth:   6.0e9,
		ReduceBandwidth: 3.0e9,
		Latency:         simtime.Nanos(150),
		SyscallCost:     simtime.Nanos(450),
		PageFaultCost:   simtime.Nanos(350),
		AttachCost:      simtime.Nanos(2000),
		RegisterCost:    simtime.Nanos(250),
		PiPSizeSync:     simtime.Nanos(500),
		PostCost:        simtime.Nanos(40),
	}
}

// Validate reports an error for nonsensical parameters.
func (p Params) Validate() error {
	// NaN slips through ordered comparisons (every one is false), so the
	// float fields are checked for finiteness explicitly.
	for _, bw := range []float64{p.CopyBandwidth, p.ReduceBandwidth, p.NodeMemBandwidth} {
		if math.IsNaN(bw) || math.IsInf(bw, 0) {
			return fmt.Errorf("shm: non-finite bandwidth: %+v", p)
		}
	}
	if p.CopyBandwidth <= 0 || p.ReduceBandwidth <= 0 {
		return fmt.Errorf("shm: bandwidths must be positive: %+v", p)
	}
	if p.NodeMemBandwidth < 0 {
		return fmt.Errorf("shm: negative node memory bandwidth: %+v", p)
	}
	for _, d := range []simtime.Duration{
		p.Latency, p.SyscallCost, p.PageFaultCost, p.AttachCost,
		p.RegisterCost, p.PiPSizeSync, p.PostCost,
	} {
		if d < 0 {
			return fmt.Errorf("shm: negative duration parameter: %+v", p)
		}
	}
	return nil
}

// Node models the shared-memory domain of one node: cost accounting plus the
// XPMEM attach cache. It is driven by simtime processes, which serialize all
// access.
type Node struct {
	params   Params
	attached map[[2]int]bool // XPMEM (src local, dst local) attach cache
	memPort  simtime.Station // aggregate memory port (NodeMemBandwidth > 0)
	stats    Stats
	rec      *obs.Recorder
}

// Stats counts intranode traffic for tests and utilization reports.
type Stats struct {
	Copies    int64
	Bytes     int64
	Reduces   int64
	RedBytes  int64
	Syscalls   int64
	Attaches   int64
	SizeSyncs  int64
	Agreements int64
}

// NewNode returns a node-local shared-memory domain.
func NewNode(params Params) (*Node, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Node{params: params, attached: make(map[[2]int]bool)}, nil
}

// MustNewNode is NewNode that panics on error.
func MustNewNode(params Params) *Node {
	n, err := NewNode(params)
	if err != nil {
		panic(err)
	}
	return n
}

// Params returns the node's calibration.
func (nd *Node) Params() Params { return nd.params }

// Observe attaches a recorder: every charged intranode operation is recorded
// as a cost-component path segment on the calling process (copy, reduce,
// size-sync, handoff, post), making PiP's per-message size-synchronization
// overhead explicitly attributable in critical-path reports.
func (nd *Node) Observe(rec *obs.Recorder) { nd.rec = rec }

// segStart returns the timestamp opening a cost segment, or -1 when no
// recorder is attached — untraced runs skip even the clock read, so the
// charge paths do zero observability work.
func (nd *Node) segStart(p *simtime.Proc) simtime.Time {
	if nd.rec == nil {
		return -1
	}
	return p.Now()
}

// seg records [start, now) on p's cost timeline; a -1 start (untraced run,
// see segStart) records nothing.
func (nd *Node) seg(p *simtime.Proc, cat string, start simtime.Time) {
	if start >= 0 && nd.rec != nil {
		nd.rec.PathSegFor(p, cat, start, p.Now())
	}
}

// Stats returns cumulative counters.
func (nd *Node) Stats() Stats { return nd.stats }

// copyCost is the pure data-movement time for n bytes at copy bandwidth.
func (nd *Node) copyCost(n int) simtime.Duration {
	return simtime.TransferTime(n, nd.params.CopyBandwidth)
}

// Memcpy copies src into dst (lengths must match) as a direct userspace copy
// in the PiP shared address space, charging the calling process the
// single-copy cost. This is the primitive PiP-MColl's intranode phases use
// after addresses have been posted.
func (nd *Node) Memcpy(p *simtime.Proc, dst, src []byte) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("shm: memcpy length mismatch %d != %d", len(dst), len(src)))
	}
	copy(dst, src)
	t0 := nd.segStart(p)
	nd.chargeStreaming(p, nd.copyCost(len(src)), len(src))
	nd.seg(p, "copy", t0)
	nd.stats.Copies++
	nd.stats.Bytes += int64(len(src))
}

// chargeStreaming advances p by a streaming operation's cost: its per-core
// time, stretched by the node's aggregate memory port when that model is
// enabled (the operation occupies the port for bytes/NodeMemBandwidth and
// finishes no earlier than its port slot).
func (nd *Node) chargeStreaming(p *simtime.Proc, perCore simtime.Duration, bytes int) {
	target := p.Now().Add(perCore)
	if nd.params.NodeMemBandwidth > 0 {
		_, done := nd.memPort.Use(p.Now(), simtime.TransferTime(bytes, nd.params.NodeMemBandwidth))
		if done > target {
			target = done
		}
	}
	p.AdvanceTo(target)
}

// Post charges the cost of publishing an address or flag to node peers.
func (nd *Node) Post(p *simtime.Proc) {
	t0 := nd.segStart(p)
	p.Advance(nd.params.PostCost)
	nd.seg(p, "post", t0)
}

// Handoff charges one intranode notification latency α_r.
func (nd *Node) Handoff(p *simtime.Proc) {
	t0 := nd.segStart(p)
	p.Advance(nd.params.Latency)
	nd.seg(p, "handoff", t0)
}

// Agreement charges the cost of one fault-tolerant agreement round over the
// shared address space: a flag post plus one notification latency per
// participating party (each survivor's arrival must become visible to the
// decider). The recovery layer (Comm.Shrink / Comm.Agree) calls this per
// round so membership changes have an honest shared-memory price.
func (nd *Node) Agreement(p *simtime.Proc, parties int) {
	if parties < 1 {
		parties = 1
	}
	t0 := nd.segStart(p)
	p.Advance(nd.params.PostCost + simtime.Duration(parties)*nd.params.Latency)
	nd.stats.Agreements++
	nd.seg(p, "agreement", t0)
	if nd.rec != nil {
		nd.rec.Metrics().Counter("shm.agreements").Add(1)
	}
}

// TransferCost returns the time the mechanism needs to move n bytes between
// two local ranks, charged to whichever side performs the copy under that
// mechanism, and updates mechanism state (attach caches, counters). It does
// not move bytes; callers pair it with a real copy.
func (nd *Node) TransferCost(mech Mechanism, srcLocal, dstLocal, n int) simtime.Duration {
	pr := nd.params
	switch mech {
	case PiP:
		// Single userspace copy; the per-message size sync is charged
		// separately via SizeSync so callers can model sender and
		// receiver sides individually.
		return nd.copyCost(n)
	case POSIX:
		// Double copy through the bounce buffer.
		return 2 * nd.copyCost(n)
	case CMA:
		nd.stats.Syscalls++
		return pr.SyscallCost + pr.PageFaultCost + nd.copyCost(n)
	case XPMEM:
		key := [2]int{srcLocal, dstLocal}
		var attach simtime.Duration
		if !nd.attached[key] {
			nd.attached[key] = true
			nd.stats.Attaches++
			attach = pr.AttachCost
		}
		return attach + nd.copyCost(n)
	case KNEM:
		nd.stats.Syscalls++
		return pr.SyscallCost + pr.PageFaultCost + pr.RegisterCost + nd.copyCost(n)
	default:
		panic(fmt.Sprintf("shm: unknown mechanism %v", mech))
	}
}

// SizeSync charges the PiP per-message size synchronization to the calling
// process. PiP-MPICH pays this on every point-to-point message; PiP-MColl
// pays it never (its algorithms exchange addresses once per collective).
func (nd *Node) SizeSync(p *simtime.Proc) {
	t0 := nd.segStart(p)
	p.Advance(nd.params.PiPSizeSync)
	nd.stats.SizeSyncs++
	if nd.rec != nil {
		nd.rec.PathSegFor(p, "size-sync", t0, p.Now())
		nd.rec.ProcSpan(p, "size-sync", "size-sync", t0, p.Now())
		nd.rec.Metrics().Counter("shm.size-syncs").Add(1)
	}
}

// Combine folds src into acc with a nums reduction operator, charging the
// streaming reduction cost over the combined byte count.
func (nd *Node) Combine(p *simtime.Proc, acc, src []byte, op nums.Op) {
	op.Combine(acc, src)
	t0 := nd.segStart(p)
	nd.chargeStreaming(p, simtime.TransferTime(len(src), nd.params.ReduceBandwidth), len(src))
	nd.seg(p, "reduce", t0)
	nd.stats.Reduces++
	nd.stats.RedBytes += int64(len(src))
}

// ChargeTransfer performs the cost side of a mechanism transfer (see
// TransferCost) with aggregate memory contention applied when enabled.
func (nd *Node) ChargeTransfer(p *simtime.Proc, mech Mechanism, srcLocal, dstLocal, n int) {
	t0 := nd.segStart(p)
	nd.chargeStreaming(p, nd.TransferCost(mech, srcLocal, dstLocal, n), n)
	nd.seg(p, "copy", t0)
}

// ResetAttachCache forgets XPMEM attachments, as after a job restart.
func (nd *Node) ResetAttachCache() {
	nd.attached = make(map[[2]int]bool)
}

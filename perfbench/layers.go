package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/bench"
	"repro/internal/fabric"
	"repro/internal/libs"
	"repro/internal/mpi"
	"repro/internal/nums"
	"repro/internal/shm"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/topology"
)

// A probe times one layer's exported function directly. run returns the
// probe's value in unit.
type probe struct {
	name, unit, layer string
	run               func() (float64, error)
}

// probeBatches is how many batches each probe times; it reports the median.
const probeBatches = 5

// perOp runs batch probeBatches times and returns the median time per
// operation in nanoseconds. batch performs n operations and returns the
// part of its wall time that measures them.
func perOp(n int, batch func(n int) (time.Duration, error)) (float64, error) {
	var ns []float64
	for i := 0; i < probeBatches; i++ {
		d, err := batch(n)
		if err != nil {
			return 0, err
		}
		ns = append(ns, float64(d.Nanoseconds())/float64(n))
	}
	return median(ns), nil
}

// gbs times batch as perOp does and converts the result to GB/s of
// size-byte operations.
func gbs(size, n int, batch func(n int) (time.Duration, error)) (float64, error) {
	ns, err := perOp(n, batch)
	if err != nil {
		return 0, err
	}
	return float64(size) / ns, nil
}

// timed runs fn and returns its wall time.
func timed(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

const (
	kernelSmall = 8 << 10 // nums kernels at the smallest fig 14 vector
	kernelLarge = 4 << 20 // and at a size past every per-core cache
	p2pBytes    = 1 << 10 // fig 9's largest scatter chunk
	matchDepth  = 64      // queued tags a receive matches against
)

// probes lists the layer probes at the given world shape (the workload's
// largest). scale multiplies every operation count; 1 is the benchmark's
// setting and tests use less.
func probes(nodes, ppn int, scale float64) []probe {
	n := func(base int) int {
		if v := int(float64(base) * scale); v > 0 {
			return v
		}
		return 1
	}
	return []probe{
		{"simtime.handoff_ns", "ns", "simtime", func() (float64, error) { return perOp(n(100000), handoff) }},
		{"simtime.barrier18_ns", "ns", "simtime", func() (float64, error) { return perOp(n(20000), barrier18) }},
		{"nums.sum_gbs_8k", "GB/s", "nums", func() (float64, error) {
			return gbs(kernelSmall, n(20000), sumKernel(kernelSmall))
		}},
		{"nums.sum_gbs_4m", "GB/s", "nums", func() (float64, error) {
			return gbs(kernelLarge, n(40), sumKernel(kernelLarge))
		}},
		{"nums.fill_gbs_4m", "GB/s", "nums", func() (float64, error) {
			return gbs(kernelLarge, n(40), fillKernel(kernelLarge))
		}},
		{"shm.memcpy_gbs_4m", "GB/s", "shm", func() (float64, error) {
			return gbs(kernelLarge, n(100), memcpyKernel(kernelLarge))
		}},
		{"fabric.send_eager_ns", "ns", "fabric", func() (float64, error) { return perOp(n(50000), fabricSend(p2pBytes)) }},
		{"fabric.send_rndv_ns", "ns", "fabric", func() (float64, error) {
			return perOp(n(50000), fabricSend(fabric.DefaultParams().EagerLimit*4))
		}},
		{"mpi.world_build_ms", "ms", "mpi", func() (float64, error) {
			ns, err := perOp(1, worldBuild(nodes, ppn))
			return ns / 1e6, err
		}},
		{"mpi.p2p_intra_ns", "ns", "mpi", func() (float64, error) { return perMessage(perOp(n(10000), pingPong(1, 2))) }},
		{"mpi.p2p_inter_ns", "ns", "mpi", func() (float64, error) { return perMessage(perOp(n(10000), pingPong(2, 1))) }},
		{"mpi.match_ns", "ns", "mpi", func() (float64, error) { return perOp(n(300)*matchDepth, match) }},
		{"pip.post_read_ns", "ns", "pip", func() (float64, error) { return perMessage(perOp(n(20000), postRead)) }},
	}
}

// handoff ping-pongs a Mailbox between two Procs: n put/get handoffs.
func handoff(n int) (time.Duration, error) {
	e := simtime.NewEngine()
	var m simtime.Mailbox
	e.Spawn("producer", func(p *simtime.Proc) {
		for i := 0; i < n; i++ {
			m.Put(p, i)
			p.Sleep(0) // hand the engine to the consumer
		}
	})
	e.Spawn("consumer", func(p *simtime.Proc) {
		for i := 0; i < n; i++ {
			m.Get(p, nil)
		}
	})
	return timed(e.Run)
}

// barrier18 runs n episodes of an 18-party barrier, one PPN's worth of
// Procs, as the sweeps' harness and intranode barriers do.
func barrier18(n int) (time.Duration, error) {
	e := simtime.NewEngine()
	b := simtime.NewBarrier(18)
	for i := 0; i < 18; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *simtime.Proc) {
			for k := 0; k < n; k++ {
				b.Wait(p)
			}
		})
	}
	return timed(e.Run)
}

func sumKernel(size int) func(n int) (time.Duration, error) {
	acc, src := make([]byte, size), make([]byte, size)
	nums.Fill(acc, 1)
	nums.Fill(src, 2)
	return func(n int) (time.Duration, error) {
		return timed(func() error {
			for i := 0; i < n; i++ {
				nums.Sum.Combine(acc, src)
			}
			return nil
		})
	}
}

func fillKernel(size int) func(n int) (time.Duration, error) {
	buf := make([]byte, size)
	return func(n int) (time.Duration, error) {
		return timed(func() error {
			for i := 0; i < n; i++ {
				nums.Fill(buf, i)
			}
			return nil
		})
	}
}

// memcpyKernel copies size bytes n times through Node.Memcpy inside one
// Proc, so the copy is charged virtual time exactly as the collectives'.
func memcpyKernel(size int) func(n int) (time.Duration, error) {
	dst, src := make([]byte, size), make([]byte, size)
	nums.FillBytes(src, 1)
	return func(n int) (time.Duration, error) {
		nd, err := shm.NewNode(shm.DefaultParams())
		if err != nil {
			return 0, err
		}
		e := simtime.NewEngine()
		e.Spawn("copier", func(p *simtime.Proc) {
			for i := 0; i < n; i++ {
				nd.Memcpy(p, dst, src)
			}
		})
		return timed(e.Run)
	}
}

// fabricSend injects n messages of size bytes from node 0 to node 1, with
// a receiver draining the destination inbox.
func fabricSend(size int) func(n int) (time.Duration, error) {
	return func(n int) (time.Duration, error) {
		f, err := fabric.New(2, 1, fabric.DefaultParams())
		if err != nil {
			return 0, err
		}
		src, dst := fabric.Endpoint{Node: 0}, fabric.Endpoint{Node: 1}
		e := simtime.NewEngine()
		e.Spawn("sender", func(p *simtime.Proc) {
			for i := 0; i < n; i++ {
				f.Send(p, src, dst, size, nil)
			}
		})
		e.Spawn("receiver", func(p *simtime.Proc) {
			inbox := f.Inbox(dst)
			for i := 0; i < n; i++ {
				inbox.Get(p, nil)
			}
		})
		return timed(e.Run)
	}
}

func worldBuild(nodes, ppn int) func(int) (time.Duration, error) {
	return func(int) (time.Duration, error) {
		return timed(func() error {
			_, err := mpi.NewWorld(topology.New(nodes, ppn, topology.Block), libs.PiPMColl().Config())
			return err
		})
	}
}

// perMessage halves a round-trip time: one direction of a ping-pong.
func perMessage(ns float64, err error) (float64, error) { return ns / 2, err }

// pingPong bounces a p2pBytes message between ranks 0 and 1 of a
// nodes x ppn world: n round trips.
func pingPong(nodes, ppn int) func(n int) (time.Duration, error) {
	return func(n int) (time.Duration, error) {
		w, err := mpi.NewWorld(topology.New(nodes, ppn, topology.Block), mpi.DefaultConfig())
		if err != nil {
			return 0, err
		}
		return timed(func() error {
			return w.Run(func(r *mpi.Rank) {
				buf := make([]byte, p2pBytes)
				peer := 1 - r.Rank()
				for i := 0; i < n; i++ {
					if r.Rank() == 0 {
						r.Send(peer, 0, buf)
						r.Recv(peer, 0, buf)
					} else {
						r.Recv(peer, 0, buf)
						r.Send(peer, 0, buf)
					}
				}
			})
		})
	}
}

// match queues matchDepth tagged messages at rank 1 and receives them in
// reverse tag order, so each receive searches the queue; it times only the
// receives.
func match(n int) (time.Duration, error) {
	rounds := n / matchDepth
	w, err := mpi.NewWorld(topology.New(1, 2, topology.Block), mpi.DefaultConfig())
	if err != nil {
		return 0, err
	}
	var recvTime time.Duration
	err = w.Run(func(r *mpi.Rank) {
		buf := make([]byte, 8)
		reqs := make([]*mpi.Request, matchDepth)
		for k := 0; k < rounds; k++ {
			if r.Rank() == 0 {
				for tag := range reqs {
					reqs[tag] = r.Isend(1, tag, buf)
				}
			}
			r.HarnessBarrier()
			if r.Rank() == 0 {
				r.Waitall(reqs...)
				continue
			}
			start := time.Now()
			for tag := matchDepth - 1; tag >= 0; tag-- {
				r.Recv(0, tag, buf)
			}
			recvTime += time.Since(start)
		}
	})
	return recvTime, err
}

// postRead has rank 0 post a PiP address cell that rank 1 reads, and rank 1
// post an acknowledgement that rank 0 reads, n times: 2n post/read pairs.
func postRead(n int) (time.Duration, error) {
	w, err := mpi.NewWorld(topology.New(1, 2, topology.Block), mpi.DefaultConfig())
	if err != nil {
		return 0, err
	}
	return timed(func() error {
		return w.Run(func(r *mpi.Rank) {
			env, me, peer := r.Env(), r.Local(), 1-r.Local()
			for i := 0; i < n; i++ {
				epoch := r.NextEpoch()
				if me == 0 {
					env.Post(r.Proc(), epoch, me, 0, i)
					env.Read(r.Proc(), epoch, peer, 0)
					env.EndEpoch(epoch) // both cells of the epoch have been read
					continue
				}
				env.Read(r.Proc(), epoch, peer, 0)
				env.Post(r.Proc(), epoch, me, 0, i)
			}
		})
	})
}

// replicaCounts are a workload's layer counts, summed over replicas of
// every simulated cell.
type replicaCounts struct {
	cells  int
	events int64
	wall   time.Duration // world runs only
	fabric fabric.Stats
	shm    shm.Stats
}

// replicate re-runs one cell's measurement point in a world the benchmark
// builds itself and adds the world's counts to rc. The point is parsed
// from the cell key, and its virtual time must equal want, the cell's
// value. With rec set, the run is also recorded and its schedule returned.
func replicate(key string, want float64, rc *replicaCounts, record bool) (*simtime.Schedule, error) {
	pt, err := parsePoint(key)
	if err != nil {
		return nil, err
	}
	lib, err := libs.ByName(pt.lib)
	if err != nil {
		return nil, err
	}
	w, err := mpi.NewWorld(topology.New(pt.nodes, pt.ppn, topology.Block), lib.Config())
	if err != nil {
		return nil, err
	}
	var rec *simtime.Recording
	if record {
		if rec, err = w.Record(); err != nil {
			return nil, err
		}
	}
	world := pt.nodes * pt.ppn
	durs := make([]simtime.Duration, pt.iters)
	start := time.Now()
	err = w.Run(func(r *mpi.Rank) {
		in, out := buffers(pt.op, pt.bytes, r.Rank(), world)
		for it := 0; it < pt.warmup+pt.iters; it++ {
			r.HarnessBarrier()
			t0 := r.Now()
			switch pt.op {
			case bench.OpScatter:
				lib.Scatter(r, 0, in, out)
			case bench.OpAllgather:
				lib.Allgather(r, in, out)
			case bench.OpAllreduce:
				lib.Allreduce(r, in, out, nums.Sum)
			}
			r.HarnessBarrier()
			if it >= pt.warmup && r.Rank() == 0 {
				durs[it-pt.warmup] = r.Now().Sub(t0)
			}
		}
	})
	rc.wall += time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("replica of %q: %w", key, err)
	}
	us := make([]float64, len(durs))
	for i, d := range durs {
		us[i] = d.Microseconds()
	}
	if got := stats.Summarize(us).Mean; got != want {
		return nil, fmt.Errorf("replica of %q: virtual time %v us, the cell has %v us", key, got, want)
	}
	rc.cells++
	rc.events += w.Events()
	fs := w.Fabric().Stats()
	rc.fabric.Messages += fs.Messages
	rc.fabric.Bytes += fs.Bytes
	rc.fabric.Rendezvous += fs.Rendezvous
	for n := 0; n < pt.nodes; n++ {
		s := w.Env(n).Shm().Stats()
		rc.shm.Copies += s.Copies
		rc.shm.Bytes += s.Bytes
		rc.shm.Reduces += s.Reduces
		rc.shm.RedBytes += s.RedBytes
		rc.shm.Syscalls += s.Syscalls
		rc.shm.SizeSyncs += s.SizeSyncs
	}
	if rec == nil {
		return nil, nil
	}
	return rec.Schedule()
}

// point is a measurement point as a bench cell key spells it.
type point struct {
	lib                              string
	op                               bench.Op
	nodes, ppn, bytes, warmup, iters int
}

func parsePoint(key string) (point, error) {
	var pt point
	_, err := fmt.Sscanf(key, "run lib=%s op=%s nodes=%d ppn=%d bytes=%d warmup=%d iters=%d",
		&pt.lib, &pt.op, &pt.nodes, &pt.ppn, &pt.bytes, &pt.warmup, &pt.iters)
	if err != nil {
		return pt, fmt.Errorf("parsing cell key %q: %w", key, err)
	}
	return pt, nil
}

// buffers fills one rank's send and receive buffers the way the bench
// harness does, so a replica moves the same bytes as the cell.
func buffers(op bench.Op, size, rank, world int) (in, out []byte) {
	switch op {
	case bench.OpScatter:
		if rank == 0 {
			in = make([]byte, world*size)
			for i := 0; i < world; i++ {
				nums.FillBytes(in[i*size:(i+1)*size], i)
			}
		}
		out = make([]byte, size)
	case bench.OpAllgather:
		in = make([]byte, size)
		nums.FillBytes(in, rank)
		out = make([]byte, world*size)
	default:
		in = make([]byte, size)
		nums.Fill(in, rank)
		out = make([]byte, size)
	}
	return in, out
}

// replayNsPerEvent replays a recorded schedule until at least minReplay
// has passed and returns the wall nanoseconds per replayed event.
func replayNsPerEvent(s *simtime.Schedule) (float64, error) {
	const minReplay = 200 * time.Millisecond
	var ns []float64
	for total := time.Duration(0); total < minReplay || len(ns) < probeBatches; {
		d, err := timed(func() error { _, err := s.Replay(); return err })
		if err != nil {
			return 0, err
		}
		total += d
		ns = append(ns, float64(d.Nanoseconds())/float64(s.Events()))
	}
	return median(ns), nil
}

// libraryNames lists every library series the sweeps and the mix draw on.
func libraryNames() []string {
	var names []string
	for _, l := range append(libs.All(), libs.PiPMCollSmall()) {
		names = append(names, l.Name())
	}
	sort.Strings(names)
	return names
}

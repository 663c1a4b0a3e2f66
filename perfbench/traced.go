package main

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/query"
	"repro/internal/simtime"
)

// serveStages are the serve layer's request stages, as Response.Stages
// names them.
var serveStages = []string{"decode", "admission", "cache_lookup", "queue_wait", "singleflight_wait", "execute", "encode"}

// probeSamples is how many timed calls the cache and query probes make.
const probeSamples = 300

// minProfile is how long the traced iterations run: at 100 samples a
// second, long enough for a layer with a few percent of the CPU to show.
const minProfile = 3 * time.Second

// runTraced is the traced run. It first times untraced iterations as
// runTimed does, for the untraced median, then runs iterations with spans,
// a CPU profile and runtime counters on, then times each layer's
// exported functions directly and re-runs every simulated cell in worlds it
// builds itself to read the layer counts. It reports every per-layer metric.
func runTraced(w workload, work string, d time.Duration, out io.Writer) (result, error) {
	m, err := measure(w, work, d)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintln(out, "untraced iterations:")
	untraced, tails := summarize(w, m, out)

	// Traced iterations run until the profile has minProfile of samples.
	// The last one stays open, so the cache probes can read its cache.
	tr := newTracer()
	before := readRuntime()
	stopSampler := sampleGoroutines()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, err
	}
	var (
		traced []iterResult
		last   iteration
	)
	for start := time.Now(); len(traced) == 0 || time.Since(start) < minProfile; {
		if last != nil {
			last.close()
		}
		runtime.GC()
		if last, _, err = timedSetup(w, work); err != nil {
			pprof.StopCPUProfile()
			stopSampler()
			return result{}, err
		}
		traced = append(traced, last.run(tr))
	}
	defer last.close()
	pprof.StopCPUProfile()
	maxGoroutines := stopSampler()
	after := readRuntime()
	res := tally(append(m.iters, traced...))
	r := pool(traced)

	lm := map[string]metric{
		"trace.overhead_s":         {r.wall.Seconds() - untraced["wall_s"].Value, "s"},
		"bench.cell_ms_p50":        {median(r.cellMS), "ms"},
		"bench.cell_ms_max":        {quantile(r.cellMS, 1), "ms"},
		"bench.queue_wait_ms":      {r.queueWaitMS, "ms"},
		"bench.cache.hits":         {float64(r.hits), "count"},
		"bench.cache.misses":       {float64(r.misses), "count"},
		"serve.singleflight_joins": {float64(r.joins), "count"},
		"serve.shed":               {float64(r.shed), "count"},
		"runtime.gc_cycles":        {after.gcCycles - before.gcCycles, "count"},
		"runtime.alloc_mb":         {(after.allocBytes - before.allocBytes) / (1 << 20), "MB"},
		"runtime.gc_cpu_frac":      {ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU), "frac"},
		"runtime.max_goroutines":   {float64(maxGoroutines), "count"},
	}
	for name, v := range tails {
		lm[name] = v
	}
	for _, st := range serveStages {
		lm["serve.stage."+st+"_us"] = metric{median(r.stagesUS[st]), "us"}
	}
	for _, lib := range libraryNames() {
		lm["libs."+lib+".cell_ms"] = metric{median(r.libCellMS[lib]), "ms"}
	}
	shares, err := layerShares(prof.Bytes())
	if err != nil {
		return result{}, fmt.Errorf("reading the CPU profile: %w", err)
	}
	for _, l := range profLayers {
		lm["prof."+l+".self_frac"] = metric{shares[l], "frac"}
	}

	// Direct calls into the layers, outside the profile.
	if err := cacheProbes(r, tr, lm); err != nil {
		return result{}, err
	}
	if err := queryProbes(r.requests, tr, lm); err != nil {
		return result{}, err
	}
	nodes, ppn := largestShape(r.cells)
	for _, p := range probes(nodes, ppn, 1) {
		span := tr.begin("probe "+p.name, p.layer, 0)
		v, err := p.run()
		tr.end(span)
		if err != nil {
			return result{}, fmt.Errorf("probe %s: %w", p.name, err)
		}
		lm[p.name] = metric{v, p.unit}
	}
	rc, replayNs, failed, err := replicas(r, tr, out)
	if err != nil {
		return result{}, err
	}
	res.Attempted += len(r.cells)
	res.Failed += failed
	res.Correct = res.Failed == 0
	lm["simtime.replay_ns_per_event"] = metric{replayNs, "ns"}
	lm["simtime.events"] = metric{float64(rc.events), "count"}
	lm["simtime.ns_per_event"] = metric{ratio(float64(rc.wall.Nanoseconds()), float64(rc.events)), "ns"}
	lm["nums.red_bytes"] = metric{float64(rc.shm.RedBytes), "bytes"}
	lm["shm.copies"] = metric{float64(rc.shm.Copies), "count"}
	lm["shm.bytes"] = metric{float64(rc.shm.Bytes), "bytes"}
	lm["shm.reduces"] = metric{float64(rc.shm.Reduces), "count"}
	lm["shm.syscalls"] = metric{float64(rc.shm.Syscalls), "count"}
	lm["shm.size_syncs"] = metric{float64(rc.shm.SizeSyncs), "count"}
	lm["fabric.messages"] = metric{float64(rc.fabric.Messages), "count"}
	lm["fabric.bytes"] = metric{float64(rc.fabric.Bytes), "bytes"}
	lm["fabric.rendezvous"] = metric{float64(rc.fabric.Rendezvous), "count"}

	spans, path := tr.snapshot(), filepath.Join(filepath.Dir(work), "spans-"+w.name()+".json")
	if err := writeSpans(path, spans); err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "traced iterations=%d median wall_s=%.6g (untraced %.6g); %d spans in %s\n",
		len(traced), r.wall.Seconds(), untraced["wall_s"].Value, len(spans), path)
	fmt.Fprintf(out, "replicas=%d of %d cells, virtual time equal to the cells'; failed=%d of %d attempted\n",
		rc.cells, len(r.cells), res.Failed, res.Attempted)
	fmt.Fprintf(out, "kernel GB/s are payload bytes per second on buffers resident in the %s LLC; "+
		"bytes moved per call as computed: sum 3x payload (two reads, one write), fill 1x, memcpy 2x\n", llcSize())
	res.Metrics = lm
	printMetrics(out, lm)
	return res, nil
}

// pool folds traced iterations into one result: their layer detail is
// pooled and their counts summed, the wall time is their median, and the
// cache is the last iteration's.
func pool(rs []iterResult) iterResult {
	if len(rs) == 1 {
		return rs[0]
	}
	p := rs[len(rs)-1]
	p.cellMS, p.libCellMS, p.stagesUS = nil, make(map[string][]float64), make(map[string][]float64)
	p.hits, p.misses, p.joins, p.shed, p.queueWaitMS = 0, 0, 0, 0, 0
	var walls []float64
	for _, r := range rs {
		walls = append(walls, r.wall.Seconds())
		p.cellMS = append(p.cellMS, r.cellMS...)
		for k, v := range r.libCellMS {
			p.libCellMS[k] = append(p.libCellMS[k], v...)
		}
		for k, v := range r.stagesUS {
			p.stagesUS[k] = append(p.stagesUS[k], v...)
		}
		p.hits += r.hits
		p.misses += r.misses
		p.joins += r.joins
		p.shed += r.shed
		p.queueWaitMS += r.queueWaitMS / float64(len(rs))
	}
	p.wall = time.Duration(median(walls) * float64(time.Second))
	return p
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// largestShape returns the largest world any of the cells builds.
func largestShape(cells []cellRef) (nodes, ppn int) {
	nodes, ppn = 1, 2
	for _, c := range cells {
		if pt, err := parsePoint(c.key); err == nil && pt.nodes*pt.ppn > nodes*ppn {
			nodes, ppn = pt.nodes, pt.ppn
		}
	}
	return nodes, ppn
}

// cacheProbes times the result cache's Load against the traced iteration's
// warm entries and its Store into a fresh cache, at the workload's cells.
func cacheProbes(r iterResult, tr *tracer, lm map[string]metric) error {
	if len(r.cells) == 0 {
		return fmt.Errorf("no cells to probe the cache with")
	}
	var loads, stores []float64
	span := tr.begin("probe bench.cache", "bench", 0)
	defer tr.end(span)
	fresh, err := bench.OpenCache(r.cache.Dir() + "-probe")
	if err != nil {
		return err
	}
	for i := 0; i < probeSamples; i++ {
		c := r.cells[i%len(r.cells)]
		start := time.Now()
		vals, ok := r.cache.Load(c.figID, c.key, c.opts)
		loads = append(loads, time.Since(start).Seconds()*1e6)
		if !ok {
			return fmt.Errorf("cell %q missing from the warm cache", c.key)
		}
		start = time.Now()
		err := fresh.Store(c.figID, c.key, c.opts, vals)
		stores = append(stores, time.Since(start).Seconds()*1e6)
		if err != nil {
			return err
		}
	}
	lm["bench.cache.load_us"] = metric{median(loads), "us"}
	lm["bench.cache.store_us"] = metric{median(stores), "us"}
	return nil
}

// queryProbes times query.Build and Request.Key on the workload's requests.
func queryProbes(reqs []query.Request, tr *tracer, lm map[string]metric) error {
	span := tr.begin("probe query", "query", 0)
	defer tr.end(span)
	var builds, keys []float64
	for i := 0; i < probeSamples; i++ {
		req := reqs[i%len(reqs)]
		start := time.Now()
		if _, err := query.Build(req); err != nil {
			return err
		}
		builds = append(builds, time.Since(start).Seconds()*1e6)
		start = time.Now()
		if _, err := req.Key(); err != nil {
			return err
		}
		keys = append(keys, time.Since(start).Seconds()*1e6)
	}
	lm["query.build_us"] = metric{median(builds), "us"}
	lm["query.key_us"] = metric{median(keys), "us"}
	return nil
}

// replicas re-runs every simulated cell of the traced iteration and sums
// the layer counts. The first replica that succeeds is also recorded, and
// its schedule replayed to time the replay engine. A replica whose virtual time differs
// from its cell's counts as a failure.
func replicas(r iterResult, tr *tracer, out io.Writer) (replicaCounts, float64, int, error) {
	var (
		rc     replicaCounts
		sched  *simtime.Schedule
		failed int
	)
	span := tr.begin("replicas", "mpi", 0)
	defer tr.end(span)
	for _, c := range r.cells {
		vals, ok := r.cache.Load(c.figID, c.key, c.opts)
		if !ok || len(vals) != 1 {
			failed++
			fmt.Fprintf(out, "replica: no single cached value for %q\n", c.key)
			continue
		}
		cs := tr.begin("replica "+c.key, "mpi", span)
		s, err := replicate(c.key, vals[0].V, &rc, sched == nil)
		tr.end(cs)
		if err != nil {
			failed++
			fmt.Fprintln(out, err)
			continue
		}
		if s != nil {
			sched = s
		}
	}
	if sched == nil { // every replica failed
		return rc, 0, failed, nil
	}
	ns, err := replayNsPerEvent(sched)
	return rc, ns, failed, err
}

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample struct {
	gcCycles, allocBytes, gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	num := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeSample{num(s[0].Value), num(s[1].Value), num(s[2].Value), num(s[3].Value)}
}

// sampleGoroutines polls the goroutine count until the returned stop
// function is called; stop returns the highest count seen.
func sampleGoroutines() func() int {
	var (
		peak atomic.Int64
		wg   sync.WaitGroup
		quit = make(chan struct{})
	)
	peak.Store(int64(runtime.NumGoroutine()))
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				if n := int64(runtime.NumGoroutine()); n > peak.Load() {
					peak.Store(n)
				}
			}
		}
	}()
	return func() int {
		close(quit)
		wg.Wait()
		return int(peak.Load())
	}
}

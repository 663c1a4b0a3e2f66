package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/client"
	"repro/internal/libs"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/stats"
)

// reference pins the digest of each workload's virtual-time output: the
// sweeps' tables (the text pipmcoll-bench prints for the same figure) and
// serve_mix's per-cell values. A faster simulator that shifts virtual time
// fails this check instead of posting a better number.
//
//go:embed reference.json
var referenceJSON []byte

var reference = mustParseReference(referenceJSON)

func mustParseReference(b []byte) map[string]string {
	ref := make(map[string]string)
	if err := json.Unmarshal(b, &ref); err != nil {
		panic(fmt.Sprintf("perfbench: reference.json: %v", err))
	}
	return ref
}

// A workload is one named set of inputs. Every iteration of it starts from
// an empty result cache, so every run measures the same cold work.
type workload interface {
	name() string
	seed() int64
	reference() string // pinned digest of the virtual-time output
	// setup builds the plan, opens the cache in dir and starts whatever
	// executes the cells; its wall time is setup_s.
	setup(dir string) (iteration, error)
}

// An iteration is one set-up instance of a workload. run may be called once.
type iteration interface {
	// run executes the workload, recording spans into tr when it is
	// non-nil.
	run(tr *tracer) iterResult
	close()
}

// A block is a stretch of served requests, warm cells on the sweeps: qps
// is served/wall, and the warm percentiles are over us. Every block holds
// enough warm latencies for a p99 with ten samples beyond it.
type block struct {
	served int
	wall   time.Duration
	us     []float64 // latency of each warm cell or request
}

// cellRef names one cached measurement cell.
type cellRef struct {
	figID string
	key   string
	opts  bench.Opts
}

// iterResult is what one iteration measured.
type iterResult struct {
	// wall is the time the user waits for the workload's cold work: the
	// cold sweep, or the whole request mix.
	wall      time.Duration
	simulated int       // cells simulated (not served from cache or a joined flight)
	coldMS    []float64 // latency of each cold cell or request
	warm      []block   // warm latencies and qps, a block at a time
	joined    int       // requests that joined another request's flight
	retried   int       // client retries after a shed or failed attempt

	attempted, failed int
	digest            string
	peakRSSMB         float64 // resident-set high-water mark during the iteration

	// Layer detail, read by the traced run.
	cellMS      []float64            // wall time of each simulated cell
	libCellMS   map[string][]float64 // cellMS by library
	queueWaitMS float64              // mean wait of a cell for an executor
	stagesUS    map[string][]float64 // serve stage spans of every request
	hits        int64                // result-cache hits
	misses      int64                // result-cache misses
	joins, shed int64                // serve singleflight joins and 429s
	cache       *bench.Cache
	cells       []cellRef       // the simulated cells, for replicas and cache probes
	requests    []query.Request // the requests query.Build compiles for this workload
}

func lookup(name string, seed int64, ref map[string]string) (workload, error) {
	switch name {
	case "sweep_small":
		// Cold full fig 9: scatter at 128x18. Scheduler-bound: proc
		// handoff, dispatch, matching and world builds dominate.
		return &sweep{id: name, fig: "9", full: true, sd: seed, ref: ref[name]}, nil
	case "sweep_large":
		// Cold quick fig 14: allreduce up to 256k doubles at 8x6.
		// Data-bound: reduction kernels and copies dominate.
		return &sweep{id: name, fig: "14", full: false, sd: seed, ref: ref[name]}, nil
	case "serve_mix":
		return newServeMix(seed, ref[name]), nil
	}
	return nil, fmt.Errorf("unknown workload %q (sweep_small, sweep_large, serve_mix)", name)
}

// tablesDigest hashes the tables exactly as the CLIs print them.
func tablesDigest(tables []*stats.Table) string {
	h := sha256.New()
	for _, t := range tables {
		h.Write([]byte(t.Format()))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// libraryOf returns the library named in a bench cell key.
func libraryOf(key string) string {
	for _, f := range strings.Fields(key) {
		if lib, ok := strings.CutPrefix(f, "lib="); ok {
			return lib
		}
	}
	return "unknown"
}

// sweep is a figure regenerated cold on one worker, then re-read warm from
// the cache it filled until warmSamples cells have been served.
type sweep struct {
	id, fig string
	full    bool
	sd      int64
	ref     string
}

// A sweep iteration serves warmSamples warm cells in blocks of at least
// warmBlock, each enough for a p99 with ten samples beyond it. The run
// reports the median over blocks, so a burst of host noise during a few
// blocks does not move qps or the warm tail.
const (
	warmSamples = 20000
	warmBlock   = 1000
)

func (s *sweep) name() string      { return s.id }
func (s *sweep) seed() int64       { return s.sd }
func (s *sweep) reference() string { return s.ref }

func (s *sweep) setup(dir string) (iteration, error) {
	fig, err := bench.Lookup(s.fig)
	if err != nil {
		return nil, err
	}
	o := bench.Opts{Full: s.full}.WithDefaults()
	cache, err := bench.OpenCache(dir)
	if err != nil {
		return nil, err
	}
	it := &sweepIter{s: s, fig: fig, opts: o, plan: fig.Cells(o), cache: cache,
		coldReg: obs.NewRegistry(), warmReg: obs.NewRegistry()}
	it.cold = bench.NewRunner(bench.RunnerConfig{Parallel: 1, Cache: cache,
		Metrics: it.coldReg, CellDone: it.cellDone})
	it.warm = bench.NewRunner(bench.RunnerConfig{Parallel: 1, Cache: cache,
		Metrics: it.warmReg, CellDone: it.cellDone})
	return it, nil
}

type sweepIter struct {
	s          *sweep
	fig        bench.Figure
	opts       bench.Opts
	plan       *bench.Plan
	cache      *bench.Cache
	cold, warm *bench.Runner
	coldReg    *obs.Registry
	warmReg    *obs.Registry

	// Completions of the plan in flight; the runner serializes CellDone
	// and RunPlan returns only after the last call.
	done    []time.Time
	keys    []string
	cellErr int
}

func (it *sweepIter) cellDone(_, key string, _ bool, err error) {
	it.done = append(it.done, time.Now())
	it.keys = append(it.keys, key)
	if err != nil {
		it.cellErr++
	}
}

// planRun is one execution of a figure's plan.
type planRun struct {
	wall   time.Duration
	lat    []float64 // seconds per cell, in completion order
	keys   []string  // cell keys, in completion order
	failed int
	digest string
}

// runPlan executes one plan. A cell's latency is the gap between
// consecutive completions, which on one worker is the cell's own service
// time. A failed cell counts once; tables that differ from the reference
// count every cell of the plan as failed.
func (it *sweepIter) runPlan(r *bench.Runner, plan *bench.Plan, tr *tracer, parent int, label string) planRun {
	it.done, it.keys, it.cellErr = it.done[:0], it.keys[:0], 0
	span := tr.begin(label, "bench", parent)
	start := time.Now()
	tables, err := r.RunPlan(context.Background(), it.fig.ID, plan, it.opts)
	pr := planRun{wall: time.Since(start), keys: append([]string(nil), it.keys...), failed: it.cellErr}
	tr.end(span)
	prev := start
	for i, t := range it.done {
		pr.lat = append(pr.lat, t.Sub(prev).Seconds())
		if plan == it.plan { // per-cell spans for the cold run only
			tr.record("cell "+it.keys[i], "bench", span, prev, t)
		}
		prev = t
	}
	switch {
	case err != nil && pr.failed == 0:
		pr.failed = len(plan.Cells)
	case err == nil:
		if pr.digest = tablesDigest(tables); pr.digest != it.s.ref {
			pr.failed = len(plan.Cells)
		}
	}
	return pr
}

func (it *sweepIter) run(tr *tracer) iterResult {
	root := tr.begin("sweep "+it.s.id, "bench", 0)
	defer tr.end(root)
	n := len(it.plan.Cells)
	cold := it.runPlan(it.cold, it.plan, tr, root, "figure cold")
	res := iterResult{wall: cold.wall, simulated: n, attempted: n, failed: cold.failed,
		digest: cold.digest, libCellMS: make(map[string][]float64), cache: it.cache,
		requests: []query.Request{{Figure: it.s.fig, Opts: query.Opts{Full: it.s.full}}}}
	for i, s := range cold.lat {
		res.coldMS = append(res.coldMS, s*1e3)
		res.cellMS = append(res.cellMS, s*1e3)
		lib := libraryOf(cold.keys[i])
		res.libCellMS[lib] = append(res.libCellMS[lib], s*1e3)
	}
	for _, c := range it.plan.Cells {
		res.cells = append(res.cells, cellRef{figID: it.fig.ID, key: c.Key, opts: it.opts})
	}
	// The warm re-reads stand for a later run of the same figure, so the
	// cold sweep's garbage is collected first, outside any timing.
	runtime.GC()
	for served := 0; served < warmSamples; {
		var b block
		for len(b.us) < warmBlock {
			plan := it.fig.Cells(it.opts)
			warm := it.runPlan(it.warm, plan, tr, root, "figure warm")
			b.served += len(plan.Cells)
			b.wall += warm.wall
			res.attempted += len(plan.Cells)
			res.failed += warm.failed
			for _, s := range warm.lat {
				b.us = append(b.us, s*1e6)
			}
		}
		served += b.served
		res.warm = append(res.warm, b)
	}
	if h := it.coldReg.Histogram("bench.cell.queue_wait_ms", obs.DefaultBuckets); h.Count() > 0 {
		res.queueWaitMS = h.Sum() / float64(h.Count())
	}
	for _, reg := range []*obs.Registry{it.coldReg, it.warmReg} {
		res.hits += reg.Counter("bench.cache.hits").Value()
		res.misses += reg.Counter("bench.cache.misses").Value()
	}
	return res
}

func (it *sweepIter) close() {}

// serve_mix: an in-process pipmcoll-serve with two scheduler workers,
// driven by two closed-loop clients through its HTTP handler. The requests are
// what-if cells from a fixed pool; each cell's first request simulates
// and writes the cache, repeats only read it, and a cell requested again
// while its first request is still simulating joins that flight.
const (
	mixWorkers  = 2
	mixClients  = 2
	mixRequests = 1500
	mixNodes    = 4
	mixPPN      = 6
	// introProb is the chance that the next request introduces a new pool
	// cell rather than repeating one; dupProb the chance that an
	// introduction is immediately requested again, which the other client
	// usually picks up while the first is still simulating. Both are
	// synthetic choices, not fitted to any recorded traffic; README.md
	// gives the reason for each and how much they move the metrics.
	introProb = 0.2
	dupProb   = 0.25
)

// mixPayloads span eager and rendezvous sizes. At 4x6 a cold cell takes
// from about one to a few tens of milliseconds, so no single cell, and no
// seed-dependent pairing of cells on the two workers, dominates a mix.
var mixPayloads = []int{64, 256, 1 << 10, 4 << 10, 16 << 10}

// mixPool lists the pool's requests in a fixed order: libraries x
// collectives x payloads.
func mixPool() []query.Request {
	var pool []query.Request
	for _, l := range append(libs.All(), libs.PiPMCollSmall()) {
		for _, op := range []bench.Op{bench.OpScatter, bench.OpAllgather, bench.OpAllreduce} {
			for _, b := range mixPayloads {
				pool = append(pool, query.Request{Cell: &query.Cell{Library: l.Name(),
					Collective: string(op), Nodes: mixNodes, PPN: mixPPN, Bytes: b}})
			}
		}
	}
	return pool
}

// mixStream returns the seeded request stream: n indices into a pool of m
// cells. Every cell is introduced once, in a seeded order, within the
// stream, so each mix simulates the whole pool.
func mixStream(seed int64, m, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(m)
	out := make([]int, 0, n+1)
	next := 0
	for len(out) < n {
		mustIntro := n-len(out) <= 2*(m-next)
		if next < m && (next == 0 || mustIntro || rng.Float64() < introProb) {
			c := order[next]
			next++
			out = append(out, c)
			if rng.Float64() < dupProb {
				out = append(out, c)
			}
			continue
		}
		out = append(out, order[rng.Intn(next)])
	}
	return out[:n]
}

type serveMix struct {
	sd   int64
	ref  string
	pool []query.Request
	// seeds draws each iteration's stream seed from the run's seed, so a
	// run's medians average over many request orders rather than resting
	// on one.
	seeds *rand.Rand
}

func newServeMix(seed int64, ref string) *serveMix {
	return &serveMix{sd: seed, ref: ref, pool: mixPool(), seeds: rand.New(rand.NewSource(seed))}
}

func (m *serveMix) name() string      { return "serve_mix" }
func (m *serveMix) seed() int64       { return m.sd }
func (m *serveMix) reference() string { return m.ref }

func (m *serveMix) setup(dir string) (iteration, error) {
	stream := mixStream(m.seeds.Int63(), len(m.pool), mixRequests)
	cache, err := bench.OpenCache(dir)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	srv := serve.New(serve.Config{Workers: mixWorkers, Cache: cache, Metrics: reg})
	it := &mixIter{m: m, stream: stream, cache: cache, reg: reg, srv: srv}
	transport := inProcess{srv.Handler()}
	for i := 0; i < mixClients; i++ {
		it.clients = append(it.clients, client.New(client.Config{
			BaseURL:  "http://pipmcoll-serve.invalid", // never dialled: see inProcess
			HTTP:     &http.Client{Transport: transport, Timeout: 60 * time.Second},
			ClientID: fmt.Sprintf("client-%d", i),
			Seed:     m.sd*mixClients + int64(i) + 1,
		}))
	}
	return it, nil
}

type mixIter struct {
	m       *serveMix
	stream  []int
	cache   *bench.Cache
	reg     *obs.Registry
	srv     *serve.Server
	clients []*client.Client
}

// reply is one request's client-side record.
type reply struct {
	cell    int // pool index
	start   time.Time
	latency time.Duration
	resp    *query.Response
	err     error
	retried int // attempts beyond the first
}

func (it *mixIter) run(tr *tracer) iterResult {
	root := tr.begin("serve_mix", "serve", 0)
	defer tr.end(root)
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		replies = make([][]reply, len(it.clients))
	)
	start := time.Now()
	for ci, c := range it.clients {
		wg.Add(1)
		go func(ci int, c *client.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(it.stream) {
					return
				}
				cell := it.stream[i]
				t0 := time.Now()
				resp, out, err := c.Query(context.Background(), it.m.pool[cell])
				d := time.Since(t0)
				tr.record("request", "client", root, t0, t0.Add(d))
				replies[ci] = append(replies[ci], reply{cell: cell, start: t0, latency: d, resp: resp, err: err, retried: out.Retried})
			}
		}(ci, c)
	}
	wg.Wait()
	wall := time.Since(start)

	warm := block{wall: wall}
	res := iterResult{wall: wall, libCellMS: make(map[string][]float64),
		stagesUS: make(map[string][]float64), cache: it.cache, requests: it.m.pool}
	var all []reply
	for _, rs := range replies {
		all = append(all, rs...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].start.Before(all[b].start) })
	values := make([]string, len(it.m.pool)) // each cell's answer, as first seen
	var queueWait []float64
	for _, r := range all {
		res.attempted++
		res.retried += r.retried
		if r.err != nil || len(r.resp.Tables) != 1 {
			res.failed++
			continue
		}
		csv := r.resp.Tables[0].CSV
		if values[r.cell] == "" {
			values[r.cell] = csv
		} else if csv != values[r.cell] {
			res.failed++ // a warm answer differs from the cold one
			continue
		}
		warm.served++
		stage := make(map[string]float64, len(r.resp.Stages))
		for _, s := range r.resp.Stages {
			stage[s.Name] = s.US
			res.stagesUS[s.Name] = append(res.stagesUS[s.Name], s.US)
		}
		if r.resp.CacheHits > 0 {
			warm.us = append(warm.us, r.latency.Seconds()*1e6)
			continue
		}
		res.coldMS = append(res.coldMS, r.latency.Seconds()*1e3)
		if _, ok := stage["singleflight_wait"]; ok {
			res.joined++
			continue
		}
		res.simulated++
		exec := stage["execute"] / 1e3
		res.cellMS = append(res.cellMS, exec)
		lib := it.m.pool[r.cell].Cell.Library
		res.libCellMS[lib] = append(res.libCellMS[lib], exec)
		queueWait = append(queueWait, stage["queue_wait"]/1e3)
	}
	h := sha256.New()
	for _, v := range values {
		h.Write([]byte(v))
		h.Write([]byte{0})
	}
	if res.digest = hex.EncodeToString(h.Sum(nil)); res.digest != it.m.ref {
		res.failed = res.attempted
	}
	res.warm = []block{warm}
	for _, q := range queueWait {
		res.queueWaitMS += q / float64(len(queueWait))
	}
	// Counted per cell, as on the sweeps: a hit is a cell answered from
	// the cache, at admission or by the worker's re-probe; a miss is a
	// cell a worker simulated. Joins are counted apart.
	res.hits = it.reg.Counter("serve.cells.fast_path").Value() + it.reg.Counter("serve.cells.cached").Value()
	res.misses = it.reg.Counter("serve.cells.executed").Value()
	res.joins = it.reg.Counter("serve.cells.joined").Value()
	res.shed = it.reg.Counter("serve.queue.rejected").Value()
	for _, req := range it.m.pool {
		j, err := query.Build(req)
		if err != nil {
			res.failed++
			continue
		}
		res.cells = append(res.cells, cellRef{figID: j.FigID, key: j.CellKeys()[0], opts: j.Opts()})
	}
	return res
}

func (it *mixIter) close() { it.srv.Close() }

// inProcess is the clients' http.RoundTripper: it serves each request
// with the server's handler on the calling goroutine. Every request and
// reply still goes through the client's encoding and decoding and the
// server's whole handler: decode, admission, cache, scheduler, encode. Only
// the kernel's loopback stack is left out. On a shared two-CPU host its
// wake-ups made serve_mix's wall_s vary twofold from run to run, which
// would hide any change to the server itself.
type inProcess struct{ h http.Handler }

func (t inProcess) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

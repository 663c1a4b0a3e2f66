package main

import (
	"bytes"
	"math"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/libs"
	"repro/internal/nums"
)

// runOnce sets up and runs one untraced iteration of w.
func runOnce(t *testing.T, w workload) iterResult {
	t.Helper()
	it, _, err := timedSetup(w, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer it.close()
	return it.run(nil)
}

func TestSweepReferenceDigest(t *testing.T) {
	// Fig 6 in quick mode runs the same sweep code path in well under a
	// second.
	w := &sweep{id: "fig6", fig: "6"}
	first := runOnce(t, w)
	if first.digest == "" || first.attempted == 0 {
		t.Fatalf("first run: digest %q, %d attempted", first.digest, first.attempted)
	}
	w.ref = first.digest
	if r := runOnce(t, w); r.failed != 0 || !tally([]iterResult{r}).Correct {
		t.Fatalf("matching reference: %d of %d failed", r.failed, r.attempted)
	}
	w.ref = strings.Repeat("0", len(first.digest))
	r := runOnce(t, w)
	if r.failed != r.attempted || tally([]iterResult{r}).Correct {
		t.Fatalf("corrupted reference: %d of %d failed, want all", r.failed, r.attempted)
	}
}

func TestServeMixReferenceDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the whole request pool")
	}
	w := newServeMix(7, reference["serve_mix"])
	r := runOnce(t, w)
	if r.failed != 0 {
		t.Fatalf("pinned reference: %d of %d failed (digest %s)", r.failed, r.attempted, r.digest)
	}
	// Every pool cell is simulated once; every other request is a cache
	// hit or a join.
	if r.hits == 0 || r.misses != int64(len(w.pool)) || r.hits+r.misses+r.joins != int64(r.attempted) {
		t.Fatalf("cache: %d hits, %d misses, %d joins for %d requests over a pool of %d",
			r.hits, r.misses, r.joins, r.attempted, len(w.pool))
	}
	w.ref = strings.Repeat("f", 64)
	r = runOnce(t, w)
	if r.failed != r.attempted || r.attempted != mixRequests {
		t.Fatalf("corrupted reference: %d of %d failed, want all %d", r.failed, r.attempted, mixRequests)
	}
}

func TestMixStreamDeterministic(t *testing.T) {
	pool := mixPool()
	a := mixStream(42, len(pool), mixRequests)
	if b := mixStream(42, len(pool), mixRequests); !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different streams")
	}
	if c := mixStream(43, len(pool), mixRequests); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same stream")
	}
	if len(a) != mixRequests {
		t.Fatalf("stream has %d requests, want %d", len(a), mixRequests)
	}
	seen := make(map[int]bool)
	for _, c := range a {
		if c < 0 || c >= len(pool) {
			t.Fatalf("stream index %d outside the pool of %d", c, len(pool))
		}
		seen[c] = true
	}
	if len(seen) != len(pool) {
		t.Fatalf("stream visits %d of %d pool cells", len(seen), len(pool))
	}

	// Each iteration draws its stream seed from the run's seed.
	x, y := newServeMix(42, ""), newServeMix(42, "")
	for i := 0; i < 3; i++ {
		if a, b := x.seeds.Int63(), y.seeds.Int63(); a != b {
			t.Fatalf("iteration %d: stream seeds %d and %d from one run seed", i, a, b)
		}
	}
}

func TestProbesFinitePositive(t *testing.T) {
	for _, p := range probes(2, 3, 0.01) {
		v, err := p.run()
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if !finitePositive(v) {
			t.Errorf("%s = %v %s, want finite and positive", p.name, v, p.unit)
		}
	}
}

func TestReplicaMatchesCell(t *testing.T) {
	spec := bench.Spec{Lib: libs.PiPMColl(), Op: bench.OpAllreduce, Nodes: 2, PPN: 3, Bytes: 64, Warmup: 2, Iters: 3}
	m, err := bench.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	key, err := bench.WhatIf{Spec: spec}.Key()
	if err != nil {
		t.Fatal(err)
	}
	var rc replicaCounts
	sched, err := replicate(key, m.MeanMicros(), &rc, true)
	if err != nil {
		t.Fatal(err)
	}
	if rc.cells != 1 || rc.events <= 0 || rc.shm.Reduces <= 0 || rc.fabric.Messages <= 0 {
		t.Fatalf("replica counts %+v", rc)
	}
	ns, err := replayNsPerEvent(sched)
	if err != nil || !finitePositive(ns) {
		t.Fatalf("replay: %v ns/event, %v", ns, err)
	}
	if _, err := replicate(key, m.MeanMicros()+1, &rc, false); err == nil {
		t.Fatal("a replica with a different virtual time was accepted")
	}
}

func TestLayerShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	acc, src := make([]byte, 1<<16), make([]byte, 1<<16)
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		nums.Sum.Combine(acc, src)
	}
	pprof.StopCPUProfile()
	shares, err := layerShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, l := range profLayers {
		total += shares[l]
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("shares sum to %v", total)
	}
	// Under the race detector much of the loop runs in uninstrumented
	// runtime code, so nums need only lead every other repository layer.
	for _, l := range profLayers {
		if l != "nums" && l != "runtime" && shares[l] >= shares["nums"] {
			t.Fatalf("a Sum.Combine loop charged %v to %s and %v to nums (%v)", shares[l], l, shares["nums"], shares)
		}
	}
	if shares["nums"] <= 0 {
		t.Fatalf("a Sum.Combine loop charged nothing to nums (%v)", shares)
	}
}

func TestFrameLayer(t *testing.T) {
	cases := map[string]string{
		"repro/internal/nums.foldOp.func1":             "nums",
		"repro/internal/simtime.(*Engine).Run":         "simtime",
		"repro/internal/query.Build":                   "other",
		"main.(*sweepIter).run":                        "other",
		"repro/internal/serve.(*Server).Handler":       "serve",
		"repro/internal/bench.(*Runner).RunPlan.func1": "bench",
	}
	for fn, want := range cases {
		if got, ok := frameLayer(fn); !ok || got != want {
			t.Errorf("frameLayer(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
	if _, ok := frameLayer("runtime.mallocgc"); ok {
		t.Error("a runtime frame was charged to a repository layer")
	}
}

// finitePositive reports whether v can stand as a probe result.
func finitePositive(v float64) bool { return v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v) }

// Command perfbench is the repository benchmark. It times the simulator's
// cold figure sweeps and a serving mix end to end, checks every
// virtual-time output against pinned digests, and with -trace 1 breaks the
// cost down by layer. README.md lists the workloads and what each metric
// should move.
//
// Run it from the repository root through the launcher, which builds it:
//
//	python3 perfbench/run.py --workload sweep_small --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workDir is where iterations keep their result caches and the traced run
// writes its spans, relative to the checkout the benchmark runs in.
const workDir = ".bench_build/work"

// setupReps is how many extra set-ups each run times before measuring, so
// setup_s is a median even when only one iteration fits in the run. A set-up
// takes tens of microseconds, so many cost little. The first setupWarmup
// are not timed: they pay the process's first-touch costs, which a user's
// later set-ups do not.
const (
	setupWarmup = 10
	setupReps   = 199
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: sweep_small, sweep_large or serve_mix")
		seed    = flag.Int64("seed", 1, "seed of the workload's generated inputs")
		seconds = flag.Int("seconds", 20, "measurement time in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	)
	flag.Parse()
	// All work runs on one P. The workloads' workers and clients still run
	// concurrently, interleaved, but no timing depends on a second CPU that
	// a shared host may take away: with a busy second CPU, serve_mix's
	// wall_s grew 1.7x at GOMAXPROCS=2 and 6% at 1.
	runtime.GOMAXPROCS(1)
	w, err := lookup(*name, *seed, reference)
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = fmt.Errorf("-seconds must be at least 1 and -trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	work, err := os.MkdirTemp(workDir, *name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", *name, *seed, *seconds, *trace)
	fmt.Println(hostStamp())
	d := time.Duration(*seconds) * time.Second
	load := sampleHostLoad()
	var res result
	if *trace == 1 {
		res, err = runTraced(w, work, d, os.Stdout)
	} else {
		res, err = runTimed(w, work, d, os.Stdout)
	}
	os.RemoveAll(work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(load.since())
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// measured is what a run of untraced iterations yields.
type measured struct {
	iters  []iterResult
	setups []float64 // seconds
}

// measure runs fresh-cache iterations of w, each after its own timed
// set-up, until d has passed (at least one). Extra set-ups come first so
// that setup_s is a median of many.
func measure(w workload, work string, d time.Duration) (measured, error) {
	var m measured
	for i := 0; i < setupWarmup+setupReps; i++ {
		it, setup, err := timedSetup(w, work)
		if err != nil {
			return m, err
		}
		it.close()
		if i >= setupWarmup {
			m.setups = append(m.setups, setup)
		}
	}
	start := time.Now()
	for len(m.iters) == 0 || time.Since(start) < d {
		runtime.GC() // each iteration starts from the same heap state
		it, setup, err := timedSetup(w, work)
		if err != nil {
			return m, err
		}
		m.setups = append(m.setups, setup)
		resetPeakRSS()
		r := it.run(nil)
		r.peakRSSMB = peakRSSMB()
		m.iters = append(m.iters, r)
		it.close()
	}
	return m, nil
}

// timedSetup prepares one iteration in a fresh, empty cache directory and
// returns its set-up time in seconds. Closing the iteration removes the
// directory.
func timedSetup(w workload, work string) (iteration, float64, error) {
	dir, err := os.MkdirTemp(work, "cache-")
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	it, err := w.setup(dir)
	setup := time.Since(start).Seconds()
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, fmt.Errorf("setting up %s: %w", w.name(), err)
	}
	return &dirIteration{iteration: it, dir: dir}, setup, nil
}

// dirIteration removes the iteration's cache directory when it closes.
type dirIteration struct {
	iteration
	dir string
}

func (d *dirIteration) close() {
	d.iteration.close()
	os.RemoveAll(d.dir)
}

// runTimed is the untraced run: it reports every end-to-end metric.
func runTimed(w workload, work string, d time.Duration, out io.Writer) (result, error) {
	m, err := measure(w, work, d)
	if err != nil {
		return result{}, err
	}
	res := tally(m.iters)
	var tails map[string]metric
	res.Metrics, tails = summarize(w, m, out)
	printMetrics(out, res.Metrics)
	fmt.Fprintln(out, "tail latencies (declared per-layer, too noisy on a shared host for a bound):")
	printMetrics(out, tails)
	return res, nil
}

// summarize computes the end-to-end metrics of untraced iterations, and
// the tail latencies, which are reported beside them but declared as
// per-layer metrics. It prints the iteration and sample counts, the digest
// check and failed_frac. Timings are taken per iteration, or per block of
// warm requests, and reported as their median, so a burst of host noise
// that hits a few iterations or blocks does not move them.
func summarize(w workload, m measured, out io.Writer) (e2e, tails map[string]metric) {
	var walls, cellRates, rss, coldP50, coldP90, qps, warmP50, warmP99 []float64
	cold, warm, joined, retried := 0, 0, 0, 0
	for _, it := range m.iters {
		walls = append(walls, it.wall.Seconds())
		rss = append(rss, it.peakRSSMB)
		cellRates = append(cellRates, float64(it.simulated)/it.wall.Seconds())
		coldP50 = append(coldP50, quantile(it.coldMS, 0.5))
		coldP90 = append(coldP90, quantile(it.coldMS, 0.9))
		cold += len(it.coldMS)
		joined += it.joined
		retried += it.retried
		for _, b := range it.warm {
			qps = append(qps, float64(b.served)/b.wall.Seconds())
			warmP50 = append(warmP50, quantile(b.us, 0.5))
			warmP99 = append(warmP99, quantile(b.us, 0.99))
			warm += len(b.us)
		}
	}
	e2e = map[string]metric{
		"setup_s":     {median(m.setups), "s"},
		"wall_s":      {median(walls), "s"},
		"cells_per_s": {median(cellRates), "1/s"},
		"peak_rss_mb": {median(rss), "MB"},
		"qps":         {median(qps), "1/s"},
		"cold_p50_ms": {median(coldP50), "ms"},
		"warm_p50_us": {median(warmP50), "us"},
	}
	tails = map[string]metric{
		"cold_p90_ms": {median(coldP90), "ms"},
		"warm_p99_us": {median(warmP99), "us"},
	}
	res := tally(m.iters)
	fmt.Fprintf(out, "iterations=%d setups=%d warm_blocks=%d seed=%d cold=%d warm=%d joined=%d retried=%d\n",
		len(m.iters), len(m.setups), len(qps), w.seed(), cold, warm, joined, retried)
	fmt.Fprintf(out, "iteration wall_s:")
	for _, x := range walls {
		fmt.Fprintf(out, " %.4f", x)
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "digest=%s (reference %s)\n", m.iters[0].digest, w.reference())
	fmt.Fprintf(out, "failed_frac=%.6g (%d of %d attempted)\n",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	return e2e, tails
}

// tally folds the iterations' attempt counts and digest checks into a
// result without metrics.
func tally(iters []iterResult) result {
	var res result
	for _, it := range iters {
		res.Attempted += it.attempted
		res.Failed += it.failed
	}
	if res.Attempted == 0 {
		res.Attempted, res.Failed = 1, 1
	}
	res.Correct = res.Failed == 0
	return res
}

func printMetrics(out io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-34s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// resetPeakRSS restarts the kernel's resident-set high-water mark, so
// that each iteration's peak is read on its own.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // without it, peaks are cumulative
}

// peakRSSMB is the resident-set high-water mark in MiB since the last
// resetPeakRSS (VmHWM), or since the process started where the kernel does
// not report VmHWM.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the order statistics of xs (the
// "type 7" estimator); an empty sample gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// writeSpans stores the traced run's spans next to its work directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostStamp identifies the machine a result was measured on, so that no
// number is compared with one from another host.
func hostStamp() string {
	return fmt.Sprintf("host: nproc=%d gomaxprocs=%d go=%s cpu=%q llc=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), llcSize())
}

// cpuModel reads the first model name the kernel reports.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// llcSize reports the size of CPU 0's highest-level cache.
func llcSize() string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	best, size := 0, ""
	for _, d := range dirs {
		lb, err1 := os.ReadFile(filepath.Join(d, "level"))
		sb, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		if l, err := strconv.Atoi(strings.TrimSpace(string(lb))); err == nil && l > best {
			best, size = l, strings.TrimSpace(string(sb))
		}
	}
	if kb, ok := strings.CutSuffix(size, "K"); ok {
		if n, err := strconv.Atoi(kb); err == nil && n%1024 == 0 {
			return fmt.Sprintf("%dMiB", n/1024)
		}
	}
	if size == "" {
		return "unknown"
	}
	return size
}

// hostLoad samples what the host lent the run: the share of all CPUs'
// time the hypervisor stole, and the process's CPU time per wall second.
// On one P with no stolen time, cpu/wall stays near 1; a run whose timings
// stand out should be read against these.
type hostLoad struct {
	wall time.Time
	stat []int64 // the aggregate cpu line of /proc/stat, in ticks
	cpu  time.Duration
}

func sampleHostLoad() hostLoad {
	h := hostLoad{wall: time.Now(), cpu: processCPU()}
	if b, err := os.ReadFile("/proc/stat"); err == nil {
		line, _, _ := strings.Cut(string(b), "\n")
		for _, f := range strings.Fields(line)[1:] {
			n, _ := strconv.ParseInt(f, 10, 64)
			h.stat = append(h.stat, n)
		}
	}
	return h
}

// since describes the load between h and now.
func (h hostLoad) since() string {
	now := sampleHostLoad()
	steal := "unknown"
	if len(h.stat) > 7 && len(now.stat) == len(h.stat) {
		var total int64
		for i := range h.stat {
			total += now.stat[i] - h.stat[i]
		}
		if total > 0 {
			steal = fmt.Sprintf("%.3f", float64(now.stat[7]-h.stat[7])/float64(total))
		}
	}
	return fmt.Sprintf("host load: steal_frac=%s cpu_per_wall=%.3f",
		steal, (now.cpu-h.cpu).Seconds()/now.wall.Sub(h.wall).Seconds())
}

// processCPU returns the user and system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

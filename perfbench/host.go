package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// hostContext records what the host was doing around a run, so a noisy
// set of runs can be explained. None of it gates a result.
type hostContext struct {
	steal0, total0 uint64
}

func startHost() *hostContext {
	h := &hostContext{}
	h.steal0, h.total0 = cpuTicks()
	return h
}

// cpuTicks reads the aggregate steal and total jiffies from /proc/stat
// (zero where the file is unavailable).
func cpuTicks() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, s := range fields[1:] {
		v, _ := strconv.ParseUint(s, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealPct is the share of CPU time the hypervisor stole since the run
// started.
func (h *hostContext) stealPct() float64 {
	steal, total := cpuTicks()
	if total <= h.total0 {
		return 0
	}
	return 100 * float64(steal-h.steal0) / float64(total-h.total0)
}

// loadAvg is the one-minute load average (0 where unavailable).
func loadAvg() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(b))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64)
	return v
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func (h *hostContext) print() {
	fmt.Printf("host: nproc %d, cpu %q, %s, loadavg %.2f, steal %.2f%%\n",
		runtime.NumCPU(), cpuModel(), runtime.Version(), loadAvg(), h.stealPct())
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far. Unlike wall time
// it excludes time the hypervisor stole from the guest.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// readSteal returns the machine-wide CPU steal time in seconds from
// /proc/stat (read-only), and false where the file or field is absent.
func readSteal() (float64, bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		// cpu user nice system idle iowait irq softirq steal ...
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		ticks, err := strconv.ParseUint(fields[8], 10, 64)
		if err != nil {
			return 0, false
		}
		// USER_HZ is 100 on every Linux ABI Go supports.
		return float64(ticks) / 100, true
	}
	return 0, false
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the highest percentile with at least ten samples
// beyond it, and its value. xs holds more than ten samples.
func tailPercentile(xs []float64) (pct, v float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := len(s) - 11
	return 100 * float64(i+1) / float64(len(s)), s[i]
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

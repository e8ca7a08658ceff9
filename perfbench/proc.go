package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSample is a snapshot of the process and host counters used to
// attribute a slow run: CPU the process burned, GC work, and CPU time the
// hypervisor stole from this guest.
type procSample struct {
	cpu        time.Duration
	gcCycles   uint32
	gcPauseNS  uint64
	allocBytes uint64
	stealTicks int64
}

// noise is the difference between two procSamples.
type noise struct {
	cpuS, gcPauseMS, allocMB, stealS float64
	gcCycles                         int
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := procSample{
		gcCycles:   ms.NumGC,
		gcPauseNS:  ms.PauseTotalNs,
		allocBytes: ms.TotalAlloc,
		stealTicks: stealTicks(),
	}
	s.cpu = processCPU()
	return s
}

// processCPU returns the user and system CPU time the process has used.
// A guest kernel with paravirtual steal accounting leaves out the time the
// hypervisor stole, so unlike wall time it does not grow with steal.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (s procSample) since(b procSample) noise {
	// /proc/stat counts in USER_HZ, which is 100 on every Linux ABI Go
	// supports.
	const userHZ = 100
	return noise{
		cpuS:      (s.cpu - b.cpu).Seconds(),
		gcCycles:  int(s.gcCycles - b.gcCycles),
		gcPauseMS: float64(s.gcPauseNS-b.gcPauseNS) / 1e6,
		allocMB:   float64(s.allocBytes-b.allocBytes) / (1 << 20),
		stealS:    float64(s.stealTicks-b.stealTicks) / userHZ,
	}
}

// stealTicks returns the host-wide steal time from the aggregate "cpu"
// line of /proc/stat (the eighth value), or 0 where it is unavailable.
func stealTicks() int64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) > 8 && fields[0] == "cpu" {
			v, _ := strconv.ParseInt(fields[8], 10, 64)
			return v
		}
	}
	return 0
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB, or the
// rusage maximum where /proc is unavailable.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	zeroinf "repro"
)

// The benchmark reads the program's existing public counters at the start
// and end of the timed window and reports per-step deltas.

const (
	rmAllocObjects = "/gc/heap/allocs:objects"
	rmAllocBytes   = "/gc/heap/allocs:bytes"
	rmGCCycles     = "/gc/cycles/total:gc-cycles"
	rmGCCPU        = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU     = "/cpu/classes/total:cpu-seconds"
	rmSchedLat     = "/sched/latencies:seconds"
)

var rmNames = []string{rmAllocObjects, rmAllocBytes, rmGCCycles, rmGCCPU, rmTotalCPU, rmSchedLat}

// counters is one reading of every counter source.
type counters struct {
	at    time.Time
	stats zeroinf.InfinityStats // rank 0's engine, traffic included
	rt    map[string]metrics.Value
	cpu   time.Duration // process user+system time
}

// statser is implemented by both stage-3 engines.
type statser interface{ Stats() zeroinf.InfinityStats }

func readCounters(e engine) counters {
	c := counters{at: time.Now(), rt: map[string]metrics.Value{}}
	if s, ok := e.(statser); ok {
		c.stats = s.Stats()
	}
	samples := make([]metrics.Sample, len(rmNames))
	for i, n := range rmNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	for _, s := range samples {
		c.rt[s.Name] = s.Value
	}
	c.cpu = processCPU()
	return c
}

// rmUint / rmFloat read a scalar runtime metric, 0 when the runtime lacks it.
func (c counters) rmUint(name string) float64 {
	if v := c.rt[name]; v.Kind() == metrics.KindUint64 {
		return float64(v.Uint64())
	}
	return 0
}

func (c counters) rmFloat(name string) float64 {
	if v := c.rt[name]; v.Kind() == metrics.KindFloat64 {
		return v.Float64()
	}
	return 0
}

// schedLatency returns the p-quantile (0..1) of goroutine scheduling
// latency, in seconds, over the interval between a and b.
func schedLatency(a, b counters, q float64) float64 {
	va, vb := a.rt[rmSchedLat], b.rt[rmSchedLat]
	if va.Kind() != metrics.KindFloat64Histogram || vb.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	ha, hb := va.Float64Histogram(), vb.Float64Histogram()
	var total uint64
	delta := make([]uint64, len(hb.Counts))
	for i := range hb.Counts {
		delta[i] = hb.Counts[i] - ha.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(q*float64(total) + 0.5)
	var seen uint64
	for i, n := range delta {
		seen += n
		if seen >= want && n > 0 {
			// Upper bucket edge; the last bucket is unbounded above.
			if up := hb.Buckets[i+1]; up < 1e300 {
				return up
			}
			return hb.Buckets[i]
		}
	}
	return hb.Buckets[len(hb.Buckets)-1]
}

// processCPU returns the process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS returns the process's peak resident set (VmHWM) in bytes.
func peakRSS() (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %q: %w", line, err)
		}
		return kb << 10, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// allocMeter reads the process-wide heap allocation count without
// allocating, for the delta around one Step.
type allocMeter struct{ s [1]metrics.Sample }

func newAllocMeter() *allocMeter {
	m := &allocMeter{}
	m.s[0].Name = rmAllocObjects
	return m
}

func (m *allocMeter) read() uint64 {
	metrics.Read(m.s[:])
	return m.s[0].Value.Uint64()
}

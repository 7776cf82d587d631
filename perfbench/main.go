// Command perfbench is the repository's benchmark. It trains the
// ZeRO-Infinity engines on synthetic batches in three workloads, each
// loading a different layer (model kernels, NVMe offload, the socket
// fabric with checkpointing), checks every run's losses bit for bit against
// a data-parallel reference, and prints the end-to-end metrics; with
// --trace 1 it records spans around its calls into each layer and prints
// the per-layer metrics instead, writing a Chrome trace beside them.
//
// Run it from the repository root through perfbench/run.sh:
//
//	bash perfbench/run.sh --workload offload-nvme --seed 3 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when
// an output check fails. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// outDir holds the run's scratch files and traces, relative to the
// directory the benchmark runs in.
const outDir = ".bench_build/perfbench"

// runLimit bounds one workload's run; a hung collective ends the process
// with an error instead of a result.
const runLimit = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Uint64("seed", 1, "seed of the synthetic batches and the initial weights")
	seconds := fs.Float64("seconds", 10, "length of the timed window")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || *name == "" {
		fmt.Fprintln(stderr, "perfbench: need --workload, --seconds > 0 and --trace 0 or 1")
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	var wls []workload
	for _, n := range names {
		w, err := workloadByName(n, *seed)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		wls = append(wls, w)
	}

	watchdog := time.AfterFunc(time.Duration(len(wls))*runLimit, func() {
		fmt.Fprintln(stderr, "perfbench: run exceeded its time limit")
		os.Exit(3)
	})
	defer watchdog.Stop()

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	var reps []report
	for _, w := range wls {
		// Both ranks share the process; more threads than cores would only
		// add scheduler noise.
		runtime.GOMAXPROCS(w.maxProcs())
		o := options{seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
			traced: *trace == 1, dir: filepath.Join(scratch, w.name), out: outDir}
		rep, err := measure(w, o)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		printReport(stdout, rep, o)
		reps = append(reps, rep)
	}
	res := summarize(reps, *trace == 1)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func printReport(w io.Writer, rep report, o options) {
	fmt.Fprintf(w, "workload %s  seed %d  window %s  traced %v\n", rep.workload, o.seed, o.window, o.traced)
	for _, m := range rep.e2e {
		fmt.Fprintln(w, "  "+m.String())
	}
	fmt.Fprintf(w, "  %-36s %14.4f %-8s n=%d\n", "fail_ratio", ratio(float64(rep.failed), float64(rep.attempted)), "ratio", rep.attempted)
	for _, p := range rep.problems {
		fmt.Fprintln(w, "  FAILED: "+p)
	}
	for _, m := range rep.layers {
		fmt.Fprintln(w, "  "+m.String())
	}
	if rep.tracePath != "" {
		fmt.Fprintln(w, "  chrome trace: "+rep.tracePath)
	}
}

// result is the last line of output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summarize folds the reports into the result line: the end-to-end metrics
// untraced, the per-layer ones traced. With several workloads each name is
// prefixed by its workload.
func summarize(reps []report, traced bool) result {
	res := result{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, rep := range reps {
		res.Attempted += rep.attempted
		res.Failed += rep.failed
		ms := rep.e2e
		if traced {
			ms = rep.layers
		}
		for _, m := range ms {
			name := m.name
			if len(reps) > 1 {
				name = rep.workload + "/" + name
			}
			res.Metrics[name] = jsonMetric{Value: m.value, Unit: m.unit}
		}
	}
	res.Correct = res.Failed == 0
	return res
}

package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

func TestTailReportsPercentileWithTenBeyond(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 40..1, unsorted input
	}
	v, pct, ok := tail(xs)
	if !ok || v != 30 || pct != 75 {
		t.Fatalf("tail of 1..40 = %v p%v ok=%v, want 30 p75 ok", v, pct, ok)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != tailBeyond {
		t.Fatalf("%d samples beyond the tail, want %d", beyond, tailBeyond)
	}
	if _, _, ok := tail(xs[:tailBeyond]); ok {
		t.Fatalf("tail of %d samples claims a percentile", tailBeyond)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{name: "Step", start: ms(0), end: ms(100), parent: -1},
		{name: "ForwardLoss", start: ms(10), end: ms(40), parent: 0},
		{name: "BackwardLoss", start: ms(30), end: ms(70), parent: 0}, // overlaps the forward
		{name: "hook", start: ms(50), end: ms(60), parent: 2},         // grandchild: inside its parent
		{name: "late", start: ms(90), end: ms(120), parent: 0},        // runs past the parent
		{name: "other rank", start: ms(0), end: ms(100), parent: 0, rank: 1},
	}
	if got, want := selfTime(spans, 0), ms(100-60-10); got != want {
		t.Fatalf("self time of the step = %v, want %v", got, want)
	}
	if got, want := selfTime(spans, 2), ms(30); got != want {
		t.Fatalf("self time of the backward = %v, want %v", got, want)
	}
}

func TestOutputCheckCatchesPerturbedLoss(t *testing.T) {
	w, err := workloadByName("compute-z3", 5)
	if err != nil {
		t.Fatal(err)
	}
	w.model.Layers, w.model.Seq = 1, 8
	data := makeBatches(w, 5)
	s, err := newSession(w, data, t.TempDir(), [ranks]*recorder{})
	if err != nil {
		t.Fatal(err)
	}
	err = s.stepsWithSnapshots(3)
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	ref, err := referenceLosses(w, data, t.TempDir(), s.next[0])
	if err != nil {
		t.Fatal(err)
	}
	var clean report
	clean.checkRun(s, ref, nil, nil)
	if clean.failed != 0 || clean.attempted != 3*ranks+3 {
		t.Fatalf("clean run: %d of %d failed: %v", clean.failed, clean.attempted, clean.problems)
	}
	ref[1] = math.Nextafter(ref[1], math.Inf(1))
	var bad report
	bad.checkRun(s, ref, nil, nil)
	if bad.failed != ranks {
		t.Fatalf("one-ulp loss change: %d failed, want %d (one step on each rank)", bad.failed, ranks)
	}
	if res := summarize([]report{bad}, false); res.Correct || res.Failed != ranks {
		t.Fatalf("result line %+v does not report the mismatch", res)
	}
}

// benchmarkFile is the part of BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmokeEveryWorkload runs each workload for a minimal window, traced
// and untraced, and checks that it passes its output checks and reports
// exactly the metrics BENCHMARK.json declares, with their units.
func TestSmokeEveryWorkload(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, wl := range bf.Workloads {
		declared = append(declared, wl.Name)
	}
	if !slices.Equal(declared, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, program runs %v", declared, workloadNames)
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", name, traced), func(t *testing.T) {
				smoke(t, name, traced, bf)
			})
		}
	}
}

func smoke(t *testing.T, name string, traced bool, bf benchmarkFile) {
	w, err := workloadByName(name, 3)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := measure(w, options{seed: 3, window: 300 * time.Millisecond, traced: traced,
		dir: t.TempDir(), out: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 || rep.attempted == 0 {
		t.Fatalf("%d of %d failed: %v", rep.failed, rep.attempted, rep.problems)
	}
	want := bf.EndToEnd
	if traced {
		want = bf.PerLayer
	}
	res := summarize([]report{rep}, traced)
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s unit %q, declared %q", m.Name, got.Unit, m.Unit)
		case !traced && !(got.Value > 0):
			t.Errorf("end-to-end %s = %v, must be positive", m.Name, got.Value)
		}
	}
	if traced {
		checkChromeTrace(t, rep.tracePath)
	}
}

func checkChromeTrace(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	names := map[string]bool{}
	pids := map[int]bool{}
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "X" {
			names[ev.Name] = true
			pids[ev.Pid] = true
		}
	}
	for _, n := range []string{"setup", "Step", "ForwardLoss", "BackwardLoss", "snapshot", "SaveRankState", "FullParams"} {
		if !names[n] {
			t.Errorf("%s: no %q span", path, n)
		}
	}
	if len(pids) != ranks {
		t.Errorf("%s: spans on %d pids, want one per rank", path, len(pids))
	}
}

package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"
)

const (
	// setupRounds is how many times a run sets the world up; setup_s is
	// the median and the last set-up world is the one timed.
	setupRounds = 5
	// warmupSteps fill the arenas and let the engines learn the gather
	// trace before timing starts.
	warmupSteps = 2
	// snapshotRounds of one step and one snapshot follow the timed window
	// on every workload, so each reports a snapshot stall.
	snapshotRounds = 24
)

// options are one run's settings.
type options struct {
	seed   uint64
	window time.Duration
	traced bool
	dir    string // scratch space for NVMe stores and snapshots
	out    string // directory the Chrome trace is written to
}

// report is one workload's outcome.
type report struct {
	workload  string
	attempted int
	failed    int
	problems  []string // why operations failed
	e2e       []metric
	layers    []metric
	tracePath string
}

// measure runs one workload: set-up rounds, the timed window, snapshot
// rounds, then the output checks against the data-parallel reference.
func measure(w workload, o options) (report, error) {
	rep := report{workload: w.name}
	data := makeBatches(w, o.seed)
	epoch := time.Now()

	var (
		s        *session
		setups   []float64
		prefixes [][]float64 // rank 0 warm-up losses of discarded set-ups
		recs     [ranks]*recorder
		setupSp  [ranks]int
	)
	for i := 0; i < setupRounds; i++ {
		if o.traced {
			for r := range recs {
				recs[r] = newRecorder(epoch, r)
				recs[r].on = true
				setupSp[r] = recs[r].begin("setup", layerBench)
			}
		}
		t0 := time.Now()
		var err error
		s, err = newSession(w, data, filepath.Join(o.dir, fmt.Sprintf("setup%d", i)), recs)
		if err != nil {
			return rep, fmt.Errorf("%s setup: %w", w.name, err)
		}
		if err := s.steps(warmupSteps); err != nil {
			s.close()
			return rep, fmt.Errorf("%s warm-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		for r, rec := range recs {
			rec.end(setupSp[r])
		}
		if i == setupRounds-1 {
			break
		}
		prefixes = append(prefixes, s.losses[0])
		if err := s.close(); err != nil {
			return rep, fmt.Errorf("%s teardown: %w", w.name, err)
		}
		runtime.GC() // start the next round from the same heap
	}

	runtime.GC() // every window starts from a collected heap
	before := readCounters(s.engines[0])
	spanStart := s.recs[0].count()
	wn, err := s.timedWindow(o.window)
	after := readCounters(s.engines[0])
	rss, rssErr := peakRSS()
	spanEnd := s.recs[0].count()
	if err == nil {
		err = s.stepsWithSnapshots(snapshotRounds)
	}
	closeErr := s.close()
	if err != nil {
		return rep, fmt.Errorf("%s: %w", w.name, err)
	}
	if rssErr != nil {
		return rep, rssErr
	}

	ref, err := referenceLosses(w, data, filepath.Join(o.dir, "reference"), s.next[0])
	if err != nil {
		return rep, err
	}
	rep.checkRun(s, ref, prefixes, closeErr)

	rep.e2e = endToEnd(w, s, wn, setups, rss)
	if o.traced {
		spans := append([]span(nil), s.recs[0].spans...)
		for _, rec := range s.recs[1:] {
			spans = append(spans, rec.spans...)
		}
		spans = append(spans, commitSpans(s, epoch)...)
		rep.tracePath = filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.json", w.name, o.seed))
		if err := writeChromeTrace(rep.tracePath, spans); err != nil {
			return rep, fmt.Errorf("writing trace: %w", err)
		}
		rep.layers = perLayer(s, wn, before, after, s.recs[0].spans[spanStart:spanEnd], spanStart)
	}
	return rep, nil
}

// checkRun counts the run's operations and the failed ones. Every step and
// every snapshot is one attempted operation; a loss that is not
// bit-identical to the reference, a failed commit or a latest generation
// that does not reopen is a failed one.
func (rep *report) checkRun(s *session, ref []float64, prefixes [][]float64, closeErr error) {
	fail := func(n int, format string, args ...any) {
		if n > 0 {
			rep.failed += n
			rep.problems = append(rep.problems, fmt.Sprintf(format, args...))
		}
	}
	for r := 0; r < ranks; r++ {
		rep.attempted += len(s.losses[r])
		bad := lossMismatches(s.losses[r], ref)
		fail(bad, "rank %d: %d step losses differ from the DDP reference", r, bad)
	}
	for i, p := range prefixes {
		rep.attempted += len(p)
		bad := lossMismatches(p, ref[:min(len(p), len(ref))])
		fail(bad, "set-up round %d: %d warm-up losses differ from the DDP reference", i, bad)
	}
	nsnaps := len(s.snaps[0])
	rep.attempted += nsnaps
	for _, c := range s.commits {
		fail(btoi(c.err != nil), "generation %d failed to commit: %v", c.gen, c.err)
	}
	fail(btoi(closeErr != nil), "snapshot writer: %v", closeErr)
	if err := verifyLatest(s.ckptDir, uint64(nsnaps), s.next[0]); err != nil {
		fail(1, "latest generation does not verify: %v", err)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// commitSpans turns rank 0's observed commits into writer-thread spans.
func commitSpans(s *session, epoch time.Time) []span {
	out := make([]span, 0, len(s.commits))
	for _, c := range s.commits {
		out = append(out, span{name: fmt.Sprintf("commit gen %d", c.gen), layer: layerWriter,
			start: c.start.Sub(epoch), end: c.end.Sub(epoch), parent: -1, id: int(c.gen)})
	}
	return out
}

// endToEnd derives the user-visible metrics from the untraced steps.
func endToEnd(w workload, s *session, wn window, setups []float64, rss int64) []metric {
	tailMS, pct, ok := tail(wn.stepMS)
	tailNote := fmt.Sprintf("p%.1f, %d samples beyond", pct, tailBeyond)
	if !ok {
		tailNote = "max: too few samples for a percentile"
	}
	var stalls []float64
	for _, t := range s.snaps[0] {
		stalls = append(stalls, ms(t.total))
	}
	return []metric{
		{name: "tokens_per_s", unit: "tok/s", n: wn.steps,
			value: float64(w.tokensPerStep()*wn.steps) / wn.wall.Seconds()},
		{name: "step_ms_p50", unit: "ms", n: len(wn.stepMS), value: median(wn.stepMS)},
		{name: "step_ms_tail", unit: "ms", n: len(wn.stepMS), value: tailMS, note: tailNote},
		{name: "setup_s", unit: "s", n: len(setups), value: median(setups)},
		{name: "rss_peak_mb", unit: "MiB", n: 1, value: float64(rss) / (1 << 20)},
		{name: "ckpt_stall_ms", unit: "ms", n: len(stalls), value: median(stalls)},
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// commKinds are the collectives the stage-3 engines issue every step.
var commKinds = []string{"allgatherhalfdecode", "reducescatterhalfdecode", "allreducescalar", "allreducemax"}

// perLayer derives the per-layer metrics of a traced run: span times from
// rank 0's traced window steps, counter deltas over the whole window.
func perLayer(s *session, wn window, a, b counters, spans []span, offset int) []metric {
	steps := float64(wn.steps)
	perStep := func(d float64) float64 { return d / steps }
	var fwd, bwd, self []float64
	for i, sp := range spans {
		if sp.name != "Step" {
			continue
		}
		var f, bk time.Duration
		for _, c := range spans {
			if c.parent == i+offset {
				switch c.name {
				case "ForwardLoss":
					f += c.dur()
				case "BackwardLoss":
					bk += c.dur()
				}
			}
		}
		fwd, bwd = append(fwd, ms(f)), append(bwd, ms(bk))
		self = append(self, ms(selfTime(s.recs[0].spans, i+offset)))
	}
	stepMS := median(wn.tracedMS)
	n := len(wn.tracedMS)

	var ckptPhase [5][]float64 // wait_prev, save, gather, submit, bytes
	for gi, t := range s.snaps[0] {
		bytes := t.bytes
		for r := 1; r < ranks; r++ {
			if gi < len(s.snaps[r]) {
				bytes += s.snaps[r][gi].bytes
			}
		}
		for k, v := range []float64{ms(t.waitPrev), ms(t.save), ms(t.gather), ms(t.submit), float64(bytes) / (1 << 20)} {
			ckptPhase[k] = append(ckptPhase[k], v)
		}
	}
	var lags []float64
	for _, c := range s.commits {
		lags = append(lags, ms(c.end.Sub(c.start)))
	}
	var snapInWindow time.Duration
	for _, t := range s.snaps[0][:wn.snaps] {
		snapInWindow += t.total
	}

	sa, sb := a.stats, b.stats
	var commWall float64
	out := []metric{
		{name: "mem.allocs_per_step", unit: "count", n: len(wn.allocs), value: median(wn.allocs),
			note: "process-wide, median over untraced steps"},
		{name: "step.ms_p50", unit: "ms", n: n, value: stepMS, note: "traced steps; base of the shares"},
		{name: "model.fwd_ms", unit: "ms", n: len(fwd), value: median(fwd)},
		{name: "model.bwd_ms", unit: "ms", n: len(bwd), value: median(bwd)},
		{name: "engine.self_ms", unit: "ms", n: len(self), value: median(self), note: "Step minus ForwardLoss and BackwardLoss"},
		{name: "engine.gathers", unit: "count", n: wn.steps, value: perStep(float64(sb.Gathers - sa.Gathers))},
		{name: "engine.ondemand_gathers", unit: "count", n: wn.steps, value: perStep(float64(sb.OnDemandGathers - sa.OnDemandGathers))},
		{name: "engine.async_reduces", unit: "count", n: wn.steps, value: perStep(float64(sb.AsyncReduces - sa.AsyncReduces))},
		{name: "engine.live_param_peak_mb", unit: "MiB", n: 1, value: float64(sb.MaxLiveParamBytes) / (1 << 20)},
	}
	issued, hits := float64(sb.CommPrefetchIssued-sa.CommPrefetchIssued), float64(sb.CommPrefetchHits-sa.CommPrefetchHits)
	nvIssued, nvHits := float64(sb.PrefetchIssued-sa.PrefetchIssued), float64(sb.PrefetchHits-sa.PrefetchHits)
	out = append(out,
		metric{name: "overlap.comm_prefetch_issued", unit: "count", n: wn.steps, value: perStep(issued)},
		metric{name: "overlap.comm_prefetch_hit_ratio", unit: "ratio", n: int(issued), value: ratio(hits, issued),
			note: fmt.Sprintf("base: %.0f issued", issued)},
		metric{name: "overlap.nvme_prefetch_issued", unit: "count", n: wn.steps, value: perStep(nvIssued)},
		metric{name: "overlap.nvme_prefetch_hit_ratio", unit: "ratio", n: int(nvIssued), value: ratio(nvHits, nvIssued),
			note: fmt.Sprintf("base: %.0f issued", nvIssued)},
	)
	for _, k := range commKinds {
		ta, tb := sa.CommTraffic[k], sb.CommTraffic[k]
		wall := (tb.MeasSeconds - ta.MeasSeconds) * 1e3
		commWall += wall
		out = append(out,
			metric{name: "comm." + k + ".ops", unit: "count", n: wn.steps, value: perStep(float64(tb.Ops - ta.Ops))},
			metric{name: "comm." + k + ".mb", unit: "MiB", n: wn.steps, value: perStep(float64(tb.MeasBytes()-ta.MeasBytes()) / (1 << 20))},
			metric{name: "comm." + k + ".wall_ms", unit: "ms", n: wn.steps, value: perStep(wall)},
		)
	}
	cpu := (b.cpu - a.cpu).Seconds()
	wall := b.at.Sub(a.at).Seconds()
	gcCPU, totCPU := b.rmFloat(rmGCCPU)-a.rmFloat(rmGCCPU), b.rmFloat(rmTotalCPU)-a.rmFloat(rmTotalCPU)
	out = append(out,
		metric{name: "nvme.read_mb", unit: "MiB", n: wn.steps, value: perStep(float64(sb.NVMeBytesRead-sa.NVMeBytesRead) / (1 << 20))},
		metric{name: "nvme.write_mb", unit: "MiB", n: wn.steps, value: perStep(float64(sb.NVMeBytesWritten-sa.NVMeBytesWritten) / (1 << 20))},
		metric{name: "mem.heap_alloc_mb", unit: "MiB", n: wn.steps, value: perStep((b.rmUint(rmAllocBytes) - a.rmUint(rmAllocBytes)) / (1 << 20))},
		metric{name: "mem.gc_cycles", unit: "count", n: wn.steps, value: perStep(b.rmUint(rmGCCycles) - a.rmUint(rmGCCycles))},
		metric{name: "mem.gc_cpu_share", unit: "ratio", n: 1, value: ratio(gcCPU, totCPU),
			note: fmt.Sprintf("base: %.2f CPU-s available; the runtime refreshes both at GC", totCPU)},
		metric{name: "mem.pinned_acquires", unit: "count", n: wn.steps, value: perStep(float64(sb.PinnedAcquires - sa.PinnedAcquires))},
		metric{name: "mem.act_offload_mb", unit: "MiB", n: wn.steps, value: perStep(float64(sb.CkptBytesOffload-sa.CkptBytesOffload) / (1 << 20))},
		metric{name: "ckpt.wait_prev_ms", unit: "ms", n: len(ckptPhase[0]), value: median(ckptPhase[0])},
		metric{name: "ckpt.save_ms", unit: "ms", n: len(ckptPhase[1]), value: median(ckptPhase[1])},
		metric{name: "ckpt.gather_ms", unit: "ms", n: len(ckptPhase[2]), value: median(ckptPhase[2])},
		metric{name: "ckpt.submit_ms", unit: "ms", n: len(ckptPhase[3]), value: median(ckptPhase[3])},
		metric{name: "ckpt.commit_lag_ms", unit: "ms", n: len(lags), value: median(lags)},
		metric{name: "ckpt.snapshot_mb", unit: "MiB", n: len(ckptPhase[4]), value: median(ckptPhase[4])},
		metric{name: "proc.cpu_util", unit: "ratio", n: 1, value: ratio(cpu, wall),
			note: fmt.Sprintf("base: %.2f wall-s", wall)},
		metric{name: "sched.latency_p50_us", unit: "us", n: 1, value: schedLatency(a, b, 0.50) * 1e6},
		metric{name: "sched.latency_p99_us", unit: "us", n: 1, value: schedLatency(a, b, 0.99) * 1e6},
		metric{name: "trace.overhead_pct", unit: "%", n: n, value: 100 * ratio(stepMS-median(wn.stepMS), median(wn.stepMS)),
			note: fmt.Sprintf("traced vs %d interleaved untraced steps", len(wn.stepMS))},
		metric{name: "share.model_pct", unit: "%", n: n, value: 100 * ratio(median(fwd)+median(bwd), stepMS)},
		metric{name: "share.engine_self_pct", unit: "%", n: n, value: 100 * ratio(median(self), stepMS)},
		metric{name: "share.comm_pct", unit: "%", n: wn.steps, value: 100 * ratio(perStep(commWall), stepMS)},
		metric{name: "share.ckpt_pct", unit: "%", n: wn.steps, value: 100 * ratio(ms(snapInWindow), ms(wn.wall)),
			note: fmt.Sprintf("%d snapshots over the window's wall time", wn.snaps)},
	)
	return out
}

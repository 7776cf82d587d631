package main

import (
	"fmt"
	"runtime"

	zeroinf "repro"
)

// workload is one benchmark input: a model, an engine configuration and a
// transport. Every workload trains 2 ranks on the parallel backend with
// overlap on and prefetch depth 2; they differ in where the step's time
// goes (see README.md for the record of why each was chosen).
type workload struct {
	name   string
	model  zeroinf.ModelConfig
	engine zeroinf.EngineConfig
	batch  int // sequences per rank per step
	// sock runs each rank on its own socket transport over loopback TCP
	// instead of the shared in-memory transport.
	sock bool
	// snapshotEvery takes an asynchronous snapshot every this many steps
	// inside the timed window (0: only the snapshot rounds after it).
	snapshotEvery int
	// procs caps GOMAXPROCS for the run (0: one per rank, at most the
	// number of CPUs).
	procs int
}

const ranks = 2

// base is the engine setting every workload shares.
func base(seed uint64) zeroinf.EngineConfig {
	return zeroinf.EngineConfig{
		Backend:          "parallel",
		Overlap:          true,
		PrefetchDepth:    2,
		LossScale:        1024,
		DynamicLossScale: true,
		Seed:             seed,
	}
}

// workloadByName returns the named workload seeded with seed. NVMe-backed
// workloads get their store directory later, per session.
func workloadByName(name string, seed uint64) (workload, error) {
	e := base(seed)
	switch name {
	case "compute-z3":
		// Many tokens per parameter: the model kernels dominate, offload and
		// NVMe are bypassed.
		e.Stage = zeroinf.Stage3
		return workload{name: name, engine: e, batch: 4,
			model: zeroinf.ModelConfig{Vocab: 64, Hidden: 64, Layers: 4, Heads: 4, Seq: 64}}, nil
	case "offload-nvme":
		// Few tokens per parameter: NVMe streaming, the optimizer and the
		// prefetchers carry the step.
		e.Infinity, e.Params, e.Optimizer = true, zeroinf.OnNVMe, zeroinf.OnNVMe
		return workload{name: name, engine: e, batch: 1,
			model: zeroinf.ModelConfig{Vocab: 64, Hidden: 256, Layers: 4, Heads: 4, Seq: 8}}, nil
	case "fabric-ckpt":
		// Collectives over real TCP dominate; snapshots commit beside the
		// steps. The ranks trade many small frames in lockstep, and with a
		// P per rank every frame wakes a thread on the other core, so the
		// host's scheduler sets the step time: at H128 on 2 shared vCPUs,
		// runs switched between 133 and 198 ms medians with hypervisor
		// steal. On one P the ranks hand off on one thread, and the step
		// measures the CPU cost of the transport and the engine. H64 keeps
		// the working set small, so the step is less exposed to other
		// tenants' use of the memory system.
		e.Infinity, e.Params, e.Optimizer = true, zeroinf.OnCPU, zeroinf.OnCPU
		e.OffloadActivations = true
		return workload{name: name, engine: e, batch: 2, sock: true, snapshotEvery: 4, procs: 1,
			model: zeroinf.ModelConfig{Vocab: 64, Hidden: 64, Layers: 4, Heads: 4, Seq: 16,
				CheckpointActivations: true}}, nil
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v or all)", name, workloadNames)
}

var workloadNames = []string{"compute-z3", "offload-nvme", "fabric-ckpt"}

// maxProcs is the GOMAXPROCS the workload runs with.
func (w workload) maxProcs() int {
	if w.procs > 0 {
		return w.procs
	}
	return min(runtime.NumCPU(), ranks)
}

// tokensPerStep is the global number of tokens one step trains.
func (w workload) tokensPerStep() int { return ranks * w.batch * w.model.Seq }

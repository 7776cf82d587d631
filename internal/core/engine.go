package core

import (
	"errors"
	"fmt"

	"repro/internal/comm"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/module"
	"repro/internal/nvme"
	"repro/internal/optim"
	"repro/internal/overlap"
	"repro/internal/tensor"
	"repro/internal/zero"
)

// pstate is the per-parameter engine state: where the fp16 shard and
// optimizer shard live, plus transient gather/prefetch bookkeeping.
type pstate struct {
	p        *module.Param
	owner    module.Module
	shardLen int
	// bcastRoot is the rank owning the whole parameter under
	// PartitionBroadcast (-1 under 1/dp slicing). On the owner shardLen is
	// the full parameter length; elsewhere it is 0 and no shard storage
	// exists.
	bcastRoot int

	// fp16 parameter shard: resident slice for OnGPU/OnCPU, region for OnNVMe.
	hostShard []tensor.Half
	region    nvme.Region

	// fp32 optimizer shard: resident for OnGPU/OnCPU, region ([master|m|v])
	// for OnNVMe.
	master, m, v []float32
	optRegion    nvme.Region

	gradShard []float32
	gpuBlock  mem.Block
	// inflight is a speculative NVMe read; commInflight a speculative
	// allgather chained onto it (or onto the resident shard).
	inflight     *inflightFetch
	commInflight inflightGather
}

type inflightFetch struct {
	ticket *nvme.Ticket
	buf    []byte
	// born is the engine's gather count when the read was issued. The comm
	// prefetcher only chains an allgather onto a read that is at least two
	// gathers old — young reads are likely still in flight, and waiting on
	// them early would serialize the disk stage instead of overlapping it.
	// Gather counts are identical across SPMD ranks, so the gate is
	// deterministic.
	born int
}

// InfinityEngine is the ZeRO-Infinity training engine for one rank.
type InfinityEngine struct {
	cfg Config
	c   *comm.Comm
	g   zero.Model
	rt  *module.Runtime

	params []*module.Param
	states map[*module.Param]*pstate
	// owned lists the parameters whose gradient and optimizer shard this
	// rank holds: all of them under 1/dp slicing, the round-robin subset
	// under owner-rank broadcast partitioning.
	owned []*module.Param

	scaler    *optim.LossScaler
	stepCount int

	// f32/f16/bytes are the engine's scratch arenas; transient gather,
	// gradient and staging buffers cycle through them instead of the heap.
	f32   *mem.Arena[float32]
	f16   *mem.Arena[tensor.Half]
	bytes *mem.Arena[byte]

	// Reused step scratch.
	shardsBuf          [][]float32
	microTok, microTgt [][]int
	meter              zero.AllocMeter

	// Infinity offload engine pieces.
	store  nvme.Store
	vol    *nvme.Volume
	io     *nvme.Engine
	pinned *mem.PinnedPool
	// writes holds the NVMe optimizer step's write-backs still in flight.
	writes writeRing

	gpuAlloc *mem.Allocator
	gpuT     *mem.Tracker
	cpuT     *mem.Tracker

	ckpt *cpuCheckpointStore

	// External-parameter registry and hook scope stack (as in zero.Z3Engine).
	external map[module.Module][]*module.Param
	active   []module.Module

	// Overlap-centric pieces (paper Sec. 6.2): trace is the learned gather
	// sequence shared by the NVMe read prefetcher and the comm (allgather)
	// prefetcher; pendingReduces holds asynchronously launched gradient
	// reduce-scatters until the drain barrier in StepAccum.
	trace          *overlap.Trace[*pstate]
	prefetch       *prefetcher
	commPrefetch   *commPrefetcher
	pendingReduces []overlap.Pending[*pstate]

	stats Stats
}

// errGPUOOM wraps allocator failures so Step can convert the panic that
// aborts a forward pass into an error (the CUDA-OOM analogue).
type errGPUOOM struct{ err error }

func (e errGPUOOM) Error() string { return e.err.Error() }

// NewInfinityEngine builds the engine for one rank, performing partitioned
// initialization: each parameter's full init values exist only transiently
// before being sharded to the configured tier.
func NewInfinityEngine(cfg Config, c *comm.Comm, g zero.Model) (*InfinityEngine, error) {
	cfg.setDefaults()
	e := &InfinityEngine{
		cfg:      cfg,
		c:        c,
		g:        g,
		params:   module.AllParams(g),
		states:   make(map[*module.Param]*pstate),
		f32:      mem.NewArena[float32](),
		f16:      mem.NewArena[tensor.Half](),
		bytes:    mem.NewArena[byte](),
		gpuT:     mem.NewTracker(fmt.Sprintf("gpu%d", c.Rank())),
		cpuT:     mem.NewTracker(fmt.Sprintf("cpu%d", c.Rank())),
		external: make(map[module.Module][]*module.Param),
	}
	e.rt = module.NewRuntime(e)
	e.rt.SetBackend(cfg.Backend)
	e.rt.SetStepArena(mem.NewStepArena())
	c.SetCodecBackend(cfg.Backend)
	if cfg.Topology != nil {
		if err := c.SetTopology(cfg.Topology); err != nil {
			return nil, err
		}
	}
	if cfg.DynamicLossScale {
		e.scaler = optim.NewLossScaler(cfg.LossScale)
	} else {
		e.scaler = optim.StaticLossScaler(cfg.LossScale)
	}
	if cfg.GPUMemory > 0 {
		e.gpuAlloc = mem.NewAllocator(cfg.GPUMemory)
		if cfg.PreFragment > 0 {
			e.gpuAlloc.PreFragment(cfg.PreFragment)
		}
	}
	if cfg.OffloadActivations {
		e.ckpt = newCPUCheckpointStore(e.cpuT, e.f32)
		e.rt.SetCheckpointStore(e.ckpt)
	}

	dp := c.Size()
	owners := make(map[*module.Param]module.Module)
	module.Walk(g, func(m module.Module) {
		for _, p := range m.Params() {
			owners[p] = m
		}
	})

	// Size and open the NVMe store + pinned pool.
	if cfg.needsNVMe() {
		var capacity int64
		maxRegion := 0
		for i, p := range e.params {
			s := e.shardLenFor(i, p)
			if cfg.Params == zero.OnNVMe {
				capacity += int64(s) * tensor.HalfBytes
			}
			if cfg.Optimizer == zero.OnNVMe {
				capacity += int64(s) * 12
			}
			if b := s * 12; b > maxRegion {
				maxRegion = b
			}
		}
		if cfg.NVMeCapacity > 0 {
			capacity = cfg.NVMeCapacity
		}
		var err error
		if cfg.NVMeDir != "" {
			e.store, err = nvme.NewTempFileStore(cfg.NVMeDir, capacity)
		} else {
			e.store = nvme.NewMemStore(capacity)
		}
		if err != nil {
			return nil, fmt.Errorf("core: open nvme store: %w", err)
		}
		e.vol = nvme.NewVolume(e.store)
		e.io = nvme.NewEngine(e.store, nvme.Options{Workers: cfg.NVMeWorkers})
		if cfg.PinnedBufBytes == 0 {
			cfg.PinnedBufBytes = maxRegion
			if cfg.PinnedBufBytes == 0 {
				cfg.PinnedBufBytes = 1
			}
		}
		e.cfg.PinnedBufBytes = cfg.PinnedBufBytes
		e.pinned = mem.NewPinnedPool(cfg.PinnedBuffers, cfg.PinnedBufBytes)
		e.writes.slots = make([]pendingWrite, cfg.PinnedBuffers)
		e.cpuT.Add(mem.CatPinnedStage, int64(cfg.PinnedBuffers)*int64(cfg.PinnedBufBytes))
	}

	// Partitioned initialization (paper Sec. 7.2). Under PartitionBroadcast
	// the "shard" is the whole parameter on its owning rank and nothing
	// elsewhere (shardLen 0: zero-length state, no NVMe regions).
	for i, p := range e.params {
		s := e.shardLenFor(i, p)
		lo := c.Rank() * s
		ps := &pstate{p: p, owner: owners[p], shardLen: s, bcastRoot: -1}
		if cfg.Partition == zero.PartitionBroadcast {
			ps.bcastRoot = i % dp
			lo = 0
		}
		fs := make([]float32, s)
		if s > 0 {
			full := model.InitValues(p, cfg.Seed) // transient
			for j := 0; j < s; j++ {
				if lo+j < len(full) {
					fs[j] = full[lo+j]
				}
			}
		}
		half := make([]tensor.Half, s)
		tensor.EncodeHalf(half, fs)

		switch {
		case cfg.Params == zero.OnNVMe:
			if s > 0 {
				r, err := e.vol.Alloc("param/"+p.Name, int64(s)*tensor.HalfBytes)
				if err != nil {
					return nil, err
				}
				buf := make([]byte, r.Size)
				copy(tensor.HalfView(buf), half)
				if err := e.io.WriteRegion(buf, r).Wait(); err != nil {
					return nil, err
				}
				ps.region = r
			}
		case cfg.Params == zero.OnCPU:
			ps.hostShard = half
			e.cpuT.Add(mem.CatParamsFP16, int64(s)*tensor.HalfBytes)
		default:
			ps.hostShard = half
			e.gpuT.Add(mem.CatParamsFP16, int64(s)*tensor.HalfBytes)
		}
		switch {
		case cfg.Optimizer == zero.OnNVMe:
			if s > 0 {
				r, err := e.vol.Alloc("opt/"+p.Name, int64(s)*12)
				if err != nil {
					return nil, err
				}
				buf := make([]byte, r.Size)
				copy(tensor.F32View(buf[:4*s]), fs) // master = fp16 init values
				// momentum and variance start at zero (already zero in buf).
				if err := e.io.WriteRegion(buf, r).Wait(); err != nil {
					return nil, err
				}
				ps.optRegion = r
			}
		case cfg.Optimizer == zero.OnCPU:
			ps.master = fs
			ps.m = make([]float32, s)
			ps.v = make([]float32, s)
			e.cpuT.Add(mem.CatOptimState, int64(s)*12)
		default:
			ps.master = fs
			ps.m = make([]float32, s)
			ps.v = make([]float32, s)
			e.gpuT.Add(mem.CatOptimState, int64(s)*12)
		}
		e.states[p] = ps
		if s > 0 {
			e.owned = append(e.owned, p)
		}
		p.SetOnDemand(e.onDemand)
		p.SetGradScratch(e.f32.Get, e.f32.Put)
	}
	if cfg.Params == zero.OnNVMe && cfg.PrefetchDepth > 0 {
		// The prefetcher's speculative reads must never hold the whole
		// pinned pool, or a synchronous fetch would starve.
		depth := cfg.PrefetchDepth
		if depth > cfg.PinnedBuffers-1 {
			depth = cfg.PinnedBuffers - 1
		}
		e.prefetch = newPrefetcher(e, depth)
	}
	if cfg.Overlap && cfg.PrefetchDepth > 0 &&
		!(cfg.Partition == zero.PartitionBroadcast && cfg.Params == zero.OnNVMe) {
		// Broadcast partitioning over NVMe keeps the owner-local read
		// prefetcher but not the comm prefetcher: its issue decisions would
		// depend on the owner's private read state and desynchronize the
		// SPMD collective sequence across ranks.
		e.commPrefetch = newCommPrefetcher(e, cfg.PrefetchDepth)
	}
	if e.prefetch != nil || e.commPrefetch != nil {
		e.trace = overlap.New[*pstate](cfg.PrefetchDepth)
	}
	return e, nil
}

// shardLenFor returns this rank's fp16 shard length for the i-th parameter
// under the configured partitioning strategy: the padded 1/dp slice, or the
// whole parameter on its round-robin owner (0 elsewhere).
func (e *InfinityEngine) shardLenFor(i int, p *module.Param) int {
	if e.cfg.Partition == zero.PartitionBroadcast {
		if i%e.c.Size() == e.c.Rank() {
			return p.Len()
		}
		return 0
	}
	return comm.ShardLen(p.Len(), e.c.Size())
}

// Close releases the NVMe engine and store.
func (e *InfinityEngine) Close() {
	if e.io != nil {
		e.io.Close()
	}
	if e.store != nil {
		e.store.Close()
	}
}

// Model returns the wrapped model.
func (e *InfinityEngine) Model() zero.Model { return e.g }

// Runtime returns the hook runtime.
func (e *InfinityEngine) Runtime() *module.Runtime { return e.rt }

// LossScale returns the current loss scale.
func (e *InfinityEngine) LossScale() float64 { return e.scaler.Scale }

// Stats returns cumulative engine statistics.
func (e *InfinityEngine) Stats() Stats {
	s := e.stats
	s.MaxLiveParamBytes = e.gpuT.Peak(mem.CatWorkingSet)
	if e.io != nil {
		io := e.io.Stats()
		s.NVMeBytesRead = io.BytesRead
		s.NVMeBytesWritten = io.BytesWritten
	}
	if e.pinned != nil {
		s.PinnedBytes = e.pinned.TotalBytes()
		s.PinnedAcquires = e.pinned.Acquires()
	}
	if e.ckpt != nil {
		s.CkptBytesOffload = e.ckpt.bytesOffloaded
	}
	if e.gpuAlloc != nil {
		s.GPUPeakBytes = e.gpuAlloc.Peak()
	}
	s.CommTraffic = e.c.Traffic()
	s.CommGBps = e.c.TrafficTotal().AggGBps()
	return s
}

// GPUTracker and CPUTracker expose memory accounting.
func (e *InfinityEngine) GPUTracker() *mem.Tracker { return e.gpuT }

// CPUTracker exposes CPU-tier accounting.
func (e *InfinityEngine) CPUTracker() *mem.Tracker { return e.cpuT }

// shardHalf returns the rank's fp16 shard of ps, fetching from its tier.
// For NVMe-resident parameters the returned slice is arena scratch; release
// it with releaseShard when done.
func (e *InfinityEngine) shardHalf(ps *pstate) []tensor.Half {
	if e.cfg.Params != zero.OnNVMe {
		return ps.hostShard
	}
	half := e.f16.Get(ps.shardLen)
	if f := ps.inflight; f != nil {
		// Prefetched: the nc-transfer already happened (or is completing).
		if err := f.ticket.Wait(); err != nil {
			panic(fmt.Errorf("core: prefetched read %s: %w", ps.p.Name, err))
		}
		copy(half, tensor.HalfView(f.buf[:ps.region.Size]))
		e.pinned.Release(f.buf[:e.cfg.PinnedBufBytes])
		ps.inflight = nil
		if e.prefetch != nil {
			e.prefetch.consumed()
		}
		e.stats.PrefetchHits++
		return half
	}
	buf := e.pinned.Acquire()
	if err := e.io.ReadRegion(buf[:ps.region.Size], ps.region).Wait(); err != nil {
		panic(fmt.Errorf("core: read shard %s: %w", ps.p.Name, err))
	}
	copy(half, tensor.HalfView(buf[:ps.region.Size]))
	e.pinned.Release(buf)
	return half
}

// releaseShard recycles a shardHalf result (a no-op for resident tiers,
// whose slice is the authoritative storage).
func (e *InfinityEngine) releaseShard(s []tensor.Half) {
	if e.cfg.Params == zero.OnNVMe {
		e.f16.Put(s)
	}
}

// writeShard persists an updated fp16 shard back to its tier.
func (e *InfinityEngine) writeShard(ps *pstate, half []tensor.Half) {
	if e.cfg.Params != zero.OnNVMe {
		copy(ps.hostShard, half)
		return
	}
	buf := e.bytes.Get(int(ps.region.Size))
	copy(tensor.HalfView(buf), half)
	err := e.io.WriteRegion(buf, ps.region).Wait()
	e.bytes.Put(buf)
	if err != nil {
		panic(fmt.Errorf("core: write shard %s: %w", ps.p.Name, err))
	}
}

// gather materializes p from the ranks' shards: bandwidth-centric under
// PartitionSlice (every rank fetches its own 1/dp slice over its own link,
// then allgather), an owner-rank broadcast under PartitionBroadcast. With
// overlap enabled, a speculatively issued collective is claimed instead of
// stalling on a fresh one, and collectives/NVMe reads for upcoming
// parameters are issued before returning to compute.
func (e *InfinityEngine) gather(p *module.Param) {
	if p.Materialized() {
		return
	}
	ps := e.states[p]
	if e.trace != nil {
		e.trace.Observe(ps)
	}
	var full []float32
	var fullH []tensor.Half
	if f := ps.commInflight; f.inFlight() {
		f.ticket.Wait()
		full, fullH = f.full, f.fullH
		e.releaseShard(f.shard)
		ps.commInflight = inflightGather{}
		e.commPrefetch.consumed()
		e.stats.CommPrefetchHits++
	} else if e.cfg.Partition == zero.PartitionBroadcast {
		fullH = e.bcastFullH(ps)
		e.c.BroadcastHalf(fullH, ps.bcastRoot)
	} else {
		// Fused allgather+decode: the collective moves fp16 shards and
		// delivers the decoded float32 view directly, skipping the
		// full-size intermediate fp16 buffer and decode pass.
		shard := e.shardHalf(ps)
		full = e.f32.Get(ps.shardLen * e.c.Size())
		e.c.AllGatherHalfDecode(full, shard)
		e.releaseShard(shard)
	}
	if e.gpuAlloc != nil {
		b, err := e.gpuAlloc.Alloc(p.FP16Bytes())
		if err != nil {
			panic(errGPUOOM{fmt.Errorf("gathering %s: %w", p.Name, err)})
		}
		ps.gpuBlock = b
	}
	e.gpuT.Add(mem.CatWorkingSet, p.FP16Bytes())
	if full == nil {
		full = e.f32.Get(p.Len())
		e.rt.Backend().DecodeHalf(full, fullH[:p.Len()])
		e.f16.Put(fullH)
	} else {
		full = full[:p.Len()]
	}
	p.SetData(full)
	e.stats.Gathers++
	if e.commPrefetch != nil {
		e.commPrefetch.issue() // chain allgathers onto completed NVMe reads first
	}
	if e.prefetch != nil {
		e.prefetch.issue() // then replenish the NVMe read-ahead window
	}
}

// bcastFullH draws a full-length fp16 view buffer from the arena and fills
// it with this rank's contribution to ps's owner broadcast — the owner's
// whole shard (fetched from its tier); stale arena contents elsewhere,
// which the broadcast overwrites. Shared by the sync gather, the comm
// prefetcher and FullParams so the owner-fetch sequence exists once.
func (e *InfinityEngine) bcastFullH(ps *pstate) []tensor.Half {
	fullH := e.f16.Get(ps.p.Len())
	if e.c.Rank() == ps.bcastRoot {
		shard := e.shardHalf(ps)
		copy(fullH, shard)
		e.releaseShard(shard)
	}
	return fullH
}

// release re-partitions p, freeing the gathered copy.
func (e *InfinityEngine) release(p *module.Param) {
	if !p.Materialized() {
		return
	}
	ps := e.states[p]
	if e.gpuAlloc != nil {
		e.gpuAlloc.Release(ps.gpuBlock)
		ps.gpuBlock = mem.Block{}
	}
	e.gpuT.Add(mem.CatWorkingSet, -p.FP16Bytes())
	e.f32.Put(p.Data())
	p.ReleaseData()
}

func (e *InfinityEngine) onDemand(p *module.Param) {
	e.gather(p)
	e.stats.OnDemandGathers++
	if len(e.active) == 0 {
		return
	}
	m := e.active[len(e.active)-1]
	if e.states[p].owner == m {
		return
	}
	for _, q := range e.external[m] {
		if q == p {
			return
		}
	}
	e.external[m] = append(e.external[m], p)
}

// PreForward implements module.Hooks.
func (e *InfinityEngine) PreForward(m module.Module) {
	e.active = append(e.active, m)
	for _, p := range m.Params() {
		e.gather(p)
	}
	for _, p := range e.external[m] {
		e.gather(p)
	}
}

// PostForward implements module.Hooks.
func (e *InfinityEngine) PostForward(m module.Module) {
	e.active = e.active[:len(e.active)-1]
	for _, p := range m.Params() {
		e.release(p)
	}
	for _, p := range e.external[m] {
		if !e.inScope(p) {
			e.release(p)
		}
	}
}

// PreBackward implements module.Hooks.
func (e *InfinityEngine) PreBackward(m module.Module) {
	e.active = append(e.active, m)
	for _, p := range m.Params() {
		e.gather(p)
	}
	for _, p := range e.external[m] {
		e.gather(p)
	}
}

// PostBackward implements module.Hooks: reduce each parameter's gradient —
// fused reduce-scatter+decode of the 1/dp slices, or fused reduce+decode to
// the owning rank under PartitionBroadcast — then re-partition.
func (e *InfinityEngine) PostBackward(m module.Module) {
	e.active = e.active[:len(e.active)-1]
	for _, p := range m.Params() {
		if p.HasGrad() {
			e.reduceGrad(p)
			p.ReleaseGrad()
		}
		e.release(p)
	}
	for _, p := range e.external[m] {
		if !e.inScope(p) {
			e.release(p)
		}
	}
}

// reduceGrad launches (or performs) the strategy's gradient reduction for
// p. Both strategies accumulate per element in rank order with fp32
// arithmetic and round through binary16, so the reduced values are
// bit-identical; only where the result lands and which links carry the
// bytes differ.
func (e *InfinityEngine) reduceGrad(p *module.Param) {
	ps := e.states[p]
	dp := e.c.Size()
	n := p.Len()
	if e.cfg.Partition == zero.PartitionBroadcast {
		gh := e.f16.Get(n)
		e.rt.Backend().EncodeHalf(gh, p.Grad())
		var gs []float32
		if e.c.Rank() == ps.bcastRoot {
			gs = e.f32.Get(n)
		}
		if e.cfg.Overlap {
			tk := e.c.ReduceHalfDecodeAsync(gs, gh, ps.bcastRoot)
			e.pendingReduces = append(e.pendingReduces,
				overlap.Pending[*pstate]{Key: ps, Ticket: tk, Shard: gs, GH: gh})
			e.stats.AsyncReduces++
		} else {
			e.c.ReduceHalfDecode(gs, gh, ps.bcastRoot)
			e.f16.Put(gh)
			if gs != nil {
				e.foldGradShard(ps, gs)
			}
		}
		return
	}
	padded := comm.PaddedLen(n, dp)
	gh := e.f16.Get(padded)
	e.rt.Backend().EncodeHalf(gh[:n], p.Grad())
	clear(gh[n:])
	gs := e.f32.Get(padded / dp)
	if e.cfg.Overlap {
		// Launch asynchronously (fused reduce+decode) and keep computing
		// the rest of the backward pass; drained before the overflow check.
		tk := e.c.ReduceScatterHalfDecodeAsync(gs, gh)
		e.pendingReduces = append(e.pendingReduces,
			overlap.Pending[*pstate]{Key: ps, Ticket: tk, Shard: gs, GH: gh})
		e.stats.AsyncReduces++
	} else {
		e.c.ReduceScatterHalfDecode(gs, gh)
		e.f16.Put(gh)
		e.foldGradShard(ps, gs)
	}
}

// foldGradShard accumulates a freshly reduced fp32 shard into ps's gradient
// shard (micro-batch accumulation), recycling the buffer when an
// accumulator already exists.
func (e *InfinityEngine) foldGradShard(ps *pstate, gs []float32) {
	if acc := ps.gradShard; acc != nil {
		e.rt.Backend().Axpy(1, gs, acc)
		e.f32.Put(gs)
	} else {
		ps.gradShard = gs
	}
}

func (e *InfinityEngine) inScope(p *module.Param) bool {
	owner := e.states[p].owner
	for _, m := range e.active {
		if owner == m {
			return true
		}
		for _, q := range e.external[m] {
			if q == p {
				return true
			}
		}
	}
	return false
}

// Step runs one training step on this rank's batch. A GPU-memory budget
// violation (working set exceeds Config.GPUMemory) is returned as an error
// wrapping mem.ErrOutOfMemory or mem.ErrFragmented.
func (e *InfinityEngine) Step(tokens, targets []int, batch int) (zero.StepResult, error) {
	tok, tgt := zero.MicroBatch(&e.microTok, &e.microTgt, tokens, targets)
	return e.StepAccum(tok, tgt, batch)
}

// StepAccum runs one training step with gradient accumulation over
// micro-batches (reduce per micro-batch, accumulate fp32 shards).
func (e *InfinityEngine) StepAccum(microTokens, microTargets [][]int, batchPerMicro int) (res zero.StepResult, err error) {
	if len(microTokens) == 0 || len(microTokens) != len(microTargets) {
		panic("core: StepAccum needs matching non-empty micro-batches")
	}
	defer func() {
		if r := recover(); r != nil {
			if oom, ok := r.(errGPUOOM); ok {
				err = oom.err
				return
			}
			panic(r)
		}
	}()
	e.meter.Begin()
	defer func() {
		e.stats.AllocsPerStep = e.meter.End()
	}()
	dp := e.c.Size()
	micros := len(microTokens)
	scaleUsed := e.scaler.Scale

	var lossSum float64
	for m := 0; m < micros; m++ {
		e.beginOverlapStep()
		// The arena step brackets the micro-batch. EndStep runs after
		// endOverlapStep's reduce drain, so nothing launched in this
		// micro-batch is in flight when the activations are reclaimed (the
		// async reduce-scatters only hold engine-arena fp16 buffers anyway).
		// An OOM unwind skips EndStep; the next BeginStep reclaims
		// unconditionally, so aborted steps cannot leak arena buffers.
		e.rt.BeginStep()
		lossSum += e.g.ForwardLoss(e.rt, microTokens[m], microTargets[m], batchPerMicro)
		e.g.BackwardLoss(e.rt, float32(scaleUsed))
		e.endOverlapStep()
		e.rt.EndStep()
	}
	globalLoss := e.c.AllReduceScalar(lossSum/float64(micros)) / float64(dp)

	// Drain barrier: every asynchronously launched reduce-scatter must land
	// before gradients are inspected for overflow.
	e.drainReduces()

	shards := e.shardsBuf[:0]
	for _, p := range e.owned {
		shards = append(shards, e.states[p].gradShard)
	}
	e.shardsBuf = shards
	if zero.GlobalOverflow(e.c, e.rt.Backend(), shards) {
		e.scaler.Update(true)
		for _, p := range e.owned {
			if gs := e.states[p].gradShard; gs != nil {
				e.f32.Put(gs)
				e.states[p].gradShard = nil
			}
		}
		return zero.StepResult{Loss: globalLoss, Skipped: true, LossScale: e.scaler.Scale}, nil
	}

	// Unscale (and clip) before the optimizer phase so the NVMe-streamed
	// update consumes finished gradients.
	inv := float32(1 / (scaleUsed * float64(dp) * float64(micros)))
	for _, p := range e.owned {
		e.rt.Backend().Scale(inv, e.states[p].gradShard)
	}
	if f := zero.GlobalClipFactor(e.c, e.cfg.ClipNorm, shards); f != 1 {
		for _, p := range e.owned {
			e.rt.Backend().Scale(float32(f), e.states[p].gradShard)
		}
	}

	e.stepCount++
	if e.cfg.Optimizer == zero.OnNVMe {
		if oerr := e.optimizerStepNVMe(); oerr != nil {
			return zero.StepResult{}, oerr
		}
	} else {
		for _, p := range e.owned {
			ps := e.states[p]
			gs := ps.gradShard
			optim.StepVecOn(e.rt.Backend(), e.cfg.Adam, e.stepCount, ps.master, gs, ps.m, ps.v)
			half := e.f16.Get(ps.shardLen)
			e.rt.Backend().EncodeHalf(half, ps.master)
			e.writeShard(ps, half)
			e.f16.Put(half)
			e.f32.Put(gs)
			ps.gradShard = nil
		}
	}
	e.scaler.Update(false)
	return zero.StepResult{Loss: globalLoss, LossScale: e.scaler.Scale}, nil
}

// LoadParams replaces the model weights — sharding each full vector and
// writing it to the configured tier — and resets the optimizer state. Every
// rank must call it with identical values.
func (e *InfinityEngine) LoadParams(values map[string][]float32) error {
	dp := e.c.Size()
	for _, p := range e.params {
		v, ok := values[p.Name]
		if !ok {
			return fmt.Errorf("core: checkpoint missing parameter %q", p.Name)
		}
		if len(v) != p.Len() {
			return fmt.Errorf("core: checkpoint parameter %q has %d elems, want %d", p.Name, len(v), p.Len())
		}
		ps := e.states[p]
		if e.cfg.Partition == zero.PartitionBroadcast && e.c.Rank() != ps.bcastRoot {
			continue // no state on this rank
		}
		rounded := tensor.RoundTripHalf(append([]float32(nil), v...))
		fs := make([]float32, ps.shardLen)
		if e.cfg.Partition == zero.PartitionBroadcast {
			copy(fs, rounded)
		} else {
			comm.Shard(fs, rounded, e.c.Rank(), dp)
		}
		half := make([]tensor.Half, ps.shardLen)
		tensor.EncodeHalf(half, fs)
		e.writeShard(ps, half)

		if e.cfg.Optimizer == zero.OnNVMe {
			buf := make([]byte, ps.optRegion.Size)
			tensor.F32ToBytes(buf[:4*ps.shardLen], fs) // master; m, v zeroed
			if werr := e.io.WriteRegion(buf, ps.optRegion).Wait(); werr != nil {
				return fmt.Errorf("core: write optimizer state %q: %w", p.Name, werr)
			}
		} else {
			copy(ps.master, fs)
			for i := range ps.m {
				ps.m[i] = 0
				ps.v[i] = 0
			}
		}
	}
	e.stepCount = 0
	return nil
}

// FullParams gathers every parameter's current fp16 values (collective).
// The transient gathered fp16 view cycles through the engine's scratch
// arena — only the returned float32 vectors are fresh allocations.
func (e *InfinityEngine) FullParams() map[string][]float32 {
	dp := e.c.Size()
	out := make(map[string][]float32, len(e.params))
	for _, p := range e.params {
		ps := e.states[p]
		v := make([]float32, p.Len())
		if e.cfg.Partition == zero.PartitionBroadcast {
			fullH := e.bcastFullH(ps)
			e.c.BroadcastHalf(fullH, ps.bcastRoot)
			tensor.DecodeHalf(v, fullH[:p.Len()])
			e.f16.Put(fullH)
		} else {
			full := e.f32.Get(ps.shardLen * dp)
			shard := e.shardHalf(ps)
			e.c.AllGatherHalfDecode(full, shard)
			e.releaseShard(shard)
			copy(v, full[:p.Len()])
			e.f32.Put(full)
		}
		out[p.Name] = v
	}
	return out
}

// ErrIsOOM reports whether err is a GPU memory-budget failure.
func ErrIsOOM(err error) bool {
	return errors.Is(err, mem.ErrOutOfMemory) || errors.Is(err, mem.ErrFragmented)
}

var _ module.Hooks = (*InfinityEngine)(nil)

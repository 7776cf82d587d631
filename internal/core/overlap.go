package core

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/overlap"
	"repro/internal/tensor"
	"repro/internal/zero"
)

// This file is the communication half of the overlap-centric design (paper
// Sec. 6.2): asynchronous parameter allgathers issued ahead of the
// consuming operator, and gradient reduce-scatters launched asynchronously
// from the backward hooks with a drain barrier before the overflow check.
// Both are bit-identical to the synchronous paths — the async collectives
// keep rank-order accumulation — so overlap is purely a wall-clock knob.

// inflightGather is a speculatively issued allgather. shard keeps the
// source buffer alive (and untouched) until the ticket completes. The
// destination is the fused allgather+decode's float32 buffer under 1/dp
// slicing (full) or the fp16 view under owner-rank broadcast (fullH) — at
// most one is non-nil. It is stored by value in the pstate so tracking it
// allocates nothing; both destinations nil means no allgather is in flight.
type inflightGather struct {
	ticket comm.Ticket
	full   []float32
	fullH  []tensor.Half
	shard  []tensor.Half
}

// inFlight reports whether an allgather is speculatively running.
func (f *inflightGather) inFlight() bool { return f.full != nil || f.fullH != nil }

// commPrefetcher issues the next depth upcoming parameters' allgathers
// during the current parameter's compute, following the shared gather
// trace. For NVMe-resident parameters it composes with the NVMe
// prefetcher: it consumes a completed (or completing) speculative read and
// chains the allgather onto it, so disk and interconnect stages of the same
// parameter pipeline back to back.
//
// Every issue decision is a deterministic function of the trace and the
// engine's own consumption sequence — identical on all SPMD ranks — which
// is what keeps the speculatively issued collectives matched rank to rank.
type commPrefetcher struct {
	e     *InfinityEngine
	depth int

	outstanding int
	inflight    []*pstate // pstates with commInflight set, for the drain
}

func newCommPrefetcher(e *InfinityEngine, depth int) *commPrefetcher {
	return &commPrefetcher{e: e, depth: depth}
}

// consumed notes that a gather claimed an in-flight allgather.
func (cp *commPrefetcher) consumed() { cp.outstanding-- }

// issue launches allgathers for upcoming trace entries within the depth
// budget.
func (cp *commPrefetcher) issue() {
	e := cp.e
	dp := e.c.Size()
	e.trace.Each(func(ps *pstate) bool {
		if cp.outstanding >= cp.depth {
			return false
		}
		if ps.commInflight.inFlight() || ps.p.Materialized() {
			return true
		}
		if e.cfg.Partition == zero.PartitionBroadcast {
			// Owner-rank partitioning (resident tiers only — the
			// constructor never builds a comm prefetcher for broadcast over
			// NVMe, so bcastFullH's owner fetch is a plain hostShard copy):
			// speculate the owner's broadcast. Every rank issues the same
			// collective unconditionally, so the SPMD sequence stays
			// matched.
			fullH := e.bcastFullH(ps)
			tk := e.c.BroadcastHalfAsync(fullH, ps.bcastRoot)
			ps.commInflight = inflightGather{ticket: tk, fullH: fullH}
			cp.inflight = append(cp.inflight, ps)
			cp.outstanding++
			e.stats.CommPrefetchIssued++
			return true
		}
		var shard []tensor.Half
		if e.cfg.Params == zero.OnNVMe {
			f := ps.inflight
			if f == nil || e.stats.Gathers-f.born < 2 {
				// Either the NVMe stage hasn't read this shard yet, or the
				// read is too young to be chained: waiting on it now would
				// drag the disk wait forward instead of overlapping it.
				// Skip — both conditions are pure functions of the gather
				// sequence, never of I/O completion timing, so every rank
				// skips identically.
				return true
			}
			if err := f.ticket.Wait(); err != nil {
				panic(fmt.Errorf("core: prefetched read %s: %w", ps.p.Name, err))
			}
			shard = e.f16.Get(ps.shardLen)
			copy(shard, tensor.HalfView(f.buf[:ps.region.Size]))
			e.pinned.Release(f.buf[:e.cfg.PinnedBufBytes])
			ps.inflight = nil
			if e.prefetch != nil {
				e.prefetch.consumed()
			}
			e.stats.PrefetchHits++ // the NVMe read was consumed a stage early
		} else {
			shard = ps.hostShard
		}
		full := e.f32.Get(ps.shardLen * dp)
		tk := e.c.AllGatherHalfDecodeAsync(full, shard)
		ps.commInflight = inflightGather{ticket: tk, full: full, shard: shard}
		cp.inflight = append(cp.inflight, ps)
		cp.outstanding++
		e.stats.CommPrefetchIssued++
		return true
	})
}

// endStep drains allgathers the step never consumed. The collectives have
// been issued on every rank (the trace is identical rank to rank), so the
// tickets always complete.
func (cp *commPrefetcher) endStep() {
	e := cp.e
	for _, ps := range cp.inflight {
		if f := ps.commInflight; f.inFlight() {
			f.ticket.Wait()
			if f.full != nil {
				e.f32.Put(f.full)
			} else {
				e.f16.Put(f.fullH)
			}
			e.releaseShard(f.shard)
			ps.commInflight = inflightGather{}
		}
	}
	cp.inflight = cp.inflight[:0]
	cp.outstanding = 0
}

// beginOverlapStep resets the shared trace for one micro-batch.
func (e *InfinityEngine) beginOverlapStep() {
	if e.trace != nil {
		e.trace.BeginStep()
	}
}

// endOverlapStep drains both prefetch stages and this micro-batch's async
// reduce-scatters (bounding retained gradient buffers to one micro-batch),
// then finishes the trace step (arming speculation, or scheduling a relearn
// after divergence).
func (e *InfinityEngine) endOverlapStep() {
	if e.commPrefetch != nil {
		e.commPrefetch.endStep()
	}
	if e.prefetch != nil {
		e.prefetch.endStep()
	}
	if e.trace != nil {
		e.trace.EndStep()
	}
	e.drainReduces()
}

// drainReduces waits out the asynchronously launched reduce-scatters via
// the shared issue-order fold (internal/overlap.Drain), accumulating into
// the fp32 gradient shards exactly as the synchronous path would. Called at
// every micro-batch boundary and again as the barrier before the overflow
// check.
func (e *InfinityEngine) drainReduces() {
	e.pendingReduces = overlap.Drain(e.pendingReduces, func(ps *pstate, gs []float32, gh []tensor.Half) {
		e.f16.Put(gh)
		if gs != nil { // nil on non-owner ranks under PartitionBroadcast
			e.foldGradShard(ps, gs)
		}
	})
}

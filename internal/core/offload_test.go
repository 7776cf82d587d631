package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/nvme"
	"repro/internal/zero"
)

var errInjectedRead = errors.New("injected read failure")

// failingStore wraps a Store and fails every ReadAt after the first allow
// successes. Writes always succeed.
type failingStore struct {
	nvme.Store
	allow int64
	reads atomic.Int64
}

func (s *failingStore) ReadAt(p []byte, off int64) (int, error) {
	if s.reads.Add(1) > s.allow {
		return 0, errInjectedRead
	}
	return s.Store.ReadAt(p, off)
}

// Regression test for the optimizerStepNVMe error path: when a streamed
// optimizer read fails, the already-issued prefetch read for the next
// parameter used to be abandoned (its pinned buffer never released, its
// in-flight I/O never awaited) and outstanding async writes were not drained
// before returning. After the error every pinned buffer must be back in the
// pool and no I/O may still be in flight.
func TestOptimizerStepNVMeErrorReleasesPrefetchSlot(t *testing.T) {
	mcfg := testModelCfg(false)
	tokens, targets := makeBatches(mcfg, 1, 1, testBatch)
	comm.Run(1, func(c *comm.Comm) {
		g := model.MustGPT(mcfg)
		e, err := NewInfinityEngine(Config{
			Params: zero.OnCPU, Optimizer: zero.OnNVMe,
			LossScale: 32, Seed: 2,
		}, c, g)
		if err != nil {
			t.Error(err)
			return
		}
		defer e.Close()

		// Swap in an I/O engine whose store fails reads after the first one:
		// the pipeline then has a processed parameter (async write in
		// flight), a failed current read, and a failing prefetched read all
		// outstanding at once.
		e.io.Close()
		fs := &failingStore{Store: e.store, allow: 1}
		e.io = nvme.NewEngine(fs, nvme.Options{Workers: 2})
		defer e.io.Close()

		_, serr := e.Step(tokens[0][0], targets[0][0], testBatch)
		if serr == nil {
			t.Error("step with failing optimizer reads succeeded")
			return
		}
		if !errors.Is(serr, errInjectedRead) {
			t.Errorf("unexpected error: %v", serr)
		}
		// Every pinned buffer must be back: the failed current slot, the
		// abandoned prefetch slot, and the write slots via their reapers.
		for i := 0; i < e.cfg.PinnedBuffers; i++ {
			buf, ok := e.pinned.TryAcquire()
			if !ok {
				t.Errorf("pinned buffer %d/%d leaked on the error path", i+1, e.cfg.PinnedBuffers)
				return
			}
			defer e.pinned.Release(buf)
		}
	})
}

// An injected NVMe write failure in the streamed optimizer step must surface
// as the step's error with every pinned buffer back in the pool. Two pinned
// buffers force the in-order write ring to reap while the stream is still
// reading; the fault lands mid-stream so reads, the ring and the failed
// write are all outstanding together.
func TestOptimizerStepNVMeWriteErrorReleasesPinnedBuffers(t *testing.T) {
	mcfg := testModelCfg(false)
	tokens, targets := makeBatches(mcfg, 1, 1, testBatch)
	for _, tc := range []struct {
		name    string
		params  zero.Placement
		buffers int
	}{
		{"params-cpu/2-buffers", zero.OnCPU, 2},
		{"params-nvme/2-buffers", zero.OnNVMe, 2},
		{"params-nvme/4-buffers", zero.OnNVMe, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			comm.Run(1, func(c *comm.Comm) {
				g := model.MustGPT(mcfg)
				e, err := NewInfinityEngine(Config{
					Params: tc.params, Optimizer: zero.OnNVMe, PinnedBuffers: tc.buffers,
					LossScale: 32, Seed: 2,
				}, c, g)
				if err != nil {
					t.Error(err)
					return
				}
				defer e.Close()

				inj := &nvme.FaultInjector{}
				inj.Arm(nvme.FaultArm{Op: nvme.Write, Nth: 3})
				e.io.Close()
				e.io = nvme.NewEngine(e.store, nvme.Options{Workers: 2, Faults: inj})
				defer e.io.Close()

				_, serr := e.Step(tokens[0][0], targets[0][0], testBatch)
				if !errors.Is(serr, nvme.ErrInjected) {
					t.Errorf("step error = %v, want the injected write fault", serr)
				}
				if inj.Fired() != 1 {
					t.Errorf("injector fired %d times, want 1", inj.Fired())
				}
				if e.writes.n != 0 {
					t.Errorf("%d optimizer writes still queued after the step", e.writes.n)
				}
				for i := 0; i < e.cfg.PinnedBuffers; i++ {
					buf, ok := e.pinned.TryAcquire()
					if !ok {
						t.Errorf("pinned buffer %d/%d leaked on the write error path", i+1, e.cfg.PinnedBuffers)
						return
					}
					defer e.pinned.Release(buf)
				}
			})
		})
	}
}

// The optimizer stream and the NVMe gather path view pinned-pool and
// byte-arena buffers as float32/fp16 in place, which needs 4-byte alignment
// (tensor.F32View panics otherwise). Check every buffer they can be handed.
func TestStreamedBuffersAreAligned(t *testing.T) {
	mcfg := testModelCfg(false)
	comm.Run(2, func(c *comm.Comm) {
		g := model.MustGPT(mcfg)
		e, err := NewInfinityEngine(Config{
			Params: zero.OnNVMe, Optimizer: zero.OnNVMe, LossScale: 32, Seed: 2,
		}, c, g)
		if err != nil {
			t.Error(err)
			return
		}
		defer e.Close()
		misaligned := func(b []byte) bool {
			return len(b) > 0 && uintptr(unsafe.Pointer(&b[0]))%4 != 0
		}
		for i := 0; i < e.cfg.PinnedBuffers; i++ {
			buf := e.pinned.Acquire()
			defer e.pinned.Release(buf)
			if misaligned(buf) {
				t.Errorf("rank %d: pinned buffer %d at %p is not 4-byte aligned", c.Rank(), i, &buf[0])
			}
		}
		for _, p := range e.owned {
			ps := e.states[p]
			for _, size := range []int64{ps.region.Size, ps.optRegion.Size} {
				buf := e.bytes.Get(int(size))
				if misaligned(buf) {
					t.Errorf("rank %d: %d-byte arena buffer for %s is not 4-byte aligned", c.Rank(), size, p.Name)
				}
				e.bytes.Put(buf)
			}
		}
	})
}

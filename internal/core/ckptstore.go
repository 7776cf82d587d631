package core

import (
	"repro/internal/mem"
	"repro/internal/tensor"
)

// cpuCheckpointStore offloads activation checkpoints to CPU memory (paper
// Sec. 5.1.2): each tensor's fp32 values are copied into a blob accounted
// against the CPU tier (4 bytes per element) and copied back exactly on
// retrieval, so offloading never changes numerics. Blobs cycle through the
// engine's f32 arena, handles through a free list, and shape slices are
// reused across occupancies of a slot, so steady-state Put is
// allocation-free (Get still allocates the returned tensor, which the
// caller owns).
type cpuCheckpointStore struct {
	tracker *mem.Tracker
	f32     *mem.Arena[float32]

	blobs []ckptBlob
	free  []int // vacant slots in blobs

	bytesOffloaded int64
}

type ckptBlob struct {
	data  []float32
	shape []int
	live  bool
}

func newCPUCheckpointStore(t *mem.Tracker, f32 *mem.Arena[float32]) *cpuCheckpointStore {
	return &cpuCheckpointStore{tracker: t, f32: f32}
}

// Put implements module.CheckpointStore.
func (s *cpuCheckpointStore) Put(t *tensor.Tensor) int {
	blob := s.f32.Get(t.Len())
	t.Read(blob)
	var h int
	if len(s.free) > 0 {
		h = s.free[len(s.free)-1]
		s.free = s.free[:len(s.free)-1]
	} else {
		h = len(s.blobs)
		s.blobs = append(s.blobs, ckptBlob{})
	}
	b := &s.blobs[h]
	b.data = blob
	b.shape = append(b.shape[:0], t.Shape()...)
	b.live = true
	n := 4 * int64(len(blob))
	s.tracker.Add(mem.CatActCkpt, n)
	s.bytesOffloaded += n
	return h
}

// Get implements module.CheckpointStore.
func (s *cpuCheckpointStore) Get(h int) *tensor.Tensor {
	if h < 0 || h >= len(s.blobs) || !s.blobs[h].live {
		panic("core: unknown checkpoint handle")
	}
	b := &s.blobs[h]
	s.tracker.Add(mem.CatActCkpt, -4*int64(len(b.data)))
	out := tensor.New(tensor.FP32, b.shape...)
	out.Write(b.data)
	s.f32.Put(b.data)
	b.data = nil
	b.live = false
	s.free = append(s.free, h)
	return out
}

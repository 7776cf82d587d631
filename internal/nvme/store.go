// Package nvme reimplements the infinity offload engine's DeepNVMe layer
// (paper Sec. 6.3): a bulk asynchronous read/write engine over block storage
// that reaches near-peak device bandwidth through aggressive parallelization
// of I/O requests, supports explicit synchronization (flush), and avoids
// data copies by reading/writing caller-supplied (pinned) buffers in place.
// The engine's callers keep that promise end to end: the infinity engine's
// optimizer step updates fp32 state inside the very buffers this package
// read it into (through tensor.F32View) and hands the same buffers back for
// the write, so the bytes are never decoded or re-encoded on the way.
//
// Two backing stores are provided: FileStore over a real file (used by the
// examples and CLIs, so offloaded model states genuinely leave RAM-resident
// Go slices) and MemStore (used in unit tests and when simulating large
// devices).
package nvme

import (
	"fmt"
	"os"
	"sync"
)

// Store is the block-device abstraction the engine drives. Implementations
// must support concurrent ReadAt/WriteAt on disjoint ranges.
type Store interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Size() int64
	Close() error
}

// MemStore is an in-memory Store. Concurrent access to disjoint ranges is
// safe; the engine never issues overlapping concurrent requests for the same
// ticket, and callers are responsible for not racing distinct tickets on
// overlapping ranges (same contract as a raw block device).
type MemStore struct {
	data []byte
}

// NewMemStore allocates an in-memory store of size bytes.
func NewMemStore(size int64) *MemStore {
	return &MemStore{data: make([]byte, size)}
}

// ReadAt implements Store.
func (m *MemStore) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off+int64(len(p)) > int64(len(m.data)) {
		return 0, fmt.Errorf("nvme: memstore read [%d,%d) out of bounds (size %d)", off, off+int64(len(p)), len(m.data))
	}
	return copy(p, m.data[off:]), nil
}

// WriteAt implements Store.
func (m *MemStore) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 || off+int64(len(p)) > int64(len(m.data)) {
		return 0, fmt.Errorf("nvme: memstore write [%d,%d) out of bounds (size %d)", off, off+int64(len(p)), len(m.data))
	}
	return copy(m.data[off:], p), nil
}

// Size implements Store.
func (m *MemStore) Size() int64 { return int64(len(m.data)) }

// Close implements Store.
func (m *MemStore) Close() error { return nil }

// FileStore is a Store over a real file, created sparse and unlinked-on-
// close when temporary.
type FileStore struct {
	f    *os.File
	size int64
	temp bool
}

// NewFileStore opens (creating/truncating) path as a size-byte store.
func NewFileStore(path string, size int64) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("nvme: open store: %w", err)
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return nil, fmt.Errorf("nvme: size store: %w", err)
	}
	return &FileStore{f: f, size: size}, nil
}

// NewTempFileStore creates a store backed by a temp file in dir (or the
// system temp dir if dir is empty); the file is removed on Close.
func NewTempFileStore(dir string, size int64) (*FileStore, error) {
	f, err := os.CreateTemp(dir, "zeroinf-nvme-*.bin")
	if err != nil {
		return nil, fmt.Errorf("nvme: temp store: %w", err)
	}
	if err := f.Truncate(size); err != nil {
		name := f.Name()
		f.Close()
		os.Remove(name)
		return nil, fmt.Errorf("nvme: size temp store: %w", err)
	}
	return &FileStore{f: f, size: size, temp: true}, nil
}

// ReadAt implements Store.
func (s *FileStore) ReadAt(p []byte, off int64) (int, error) { return s.f.ReadAt(p, off) }

// WriteAt implements Store.
func (s *FileStore) WriteAt(p []byte, off int64) (int, error) { return s.f.WriteAt(p, off) }

// Size implements Store.
func (s *FileStore) Size() int64 { return s.size }

// Path returns the backing file's path.
func (s *FileStore) Path() string { return s.f.Name() }

// Sync flushes the backing file to stable storage (fsync) — the durability
// point the crash-consistent checkpoint commit protocol relies on. Stores
// without durable backing (MemStore) simply don't implement it; callers
// type-assert for interface{ Sync() error }.
func (s *FileStore) Sync() error { return s.f.Sync() }

// Close implements Store, removing the backing file if temporary.
func (s *FileStore) Close() error {
	err := s.f.Close()
	if s.temp {
		if rmErr := os.Remove(s.f.Name()); err == nil {
			err = rmErr
		}
	}
	return err
}

// Region is a named extent on a store, handed out by a Volume.
type Region struct {
	Offset int64
	Size   int64
}

// Volume is a trivial bump allocator of named regions on a Store. Offloaded
// model states are allocated once at engine construction and live for the
// whole run, so no free list is needed.
type Volume struct {
	store Store

	mu      sync.Mutex
	next    int64
	regions map[string]Region
}

// NewVolume wraps store with a region allocator.
func NewVolume(store Store) *Volume {
	return &Volume{store: store, regions: make(map[string]Region)}
}

// Store returns the underlying store.
func (v *Volume) Store() Store { return v.store }

// Alloc reserves size bytes under name. It fails if the name exists or the
// store is exhausted.
func (v *Volume) Alloc(name string, size int64) (Region, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, ok := v.regions[name]; ok {
		return Region{}, fmt.Errorf("nvme: region %q already allocated", name)
	}
	if v.next+size > v.store.Size() {
		return Region{}, fmt.Errorf("nvme: volume full: want %d, %d of %d used",
			size, v.next, v.store.Size())
	}
	r := Region{Offset: v.next, Size: size}
	v.next += size
	v.regions[name] = r
	return r, nil
}

// Lookup returns the region registered under name.
func (v *Volume) Lookup(name string) (Region, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	r, ok := v.regions[name]
	return r, ok
}

// Used returns the bytes allocated so far.
func (v *Volume) Used() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.next
}

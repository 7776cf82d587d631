//go:build 386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

package tensor

import "unsafe"

// Zero-copy views of byte storage. The on-disk and on-wire layouts of fp32
// optimizer state and fp16 parameter shards are little endian (see
// F32ToBytes and HalfToBytes), which on a little-endian host is exactly the
// in-memory layout of []float32 and []Half. A view therefore lets the
// offload engine update state in place in the pinned staging buffers that
// NVMe reads and writes, with no decode or re-encode pass. Big-endian hosts
// are rejected at compile time (view_bigendian.go) rather than served by a
// second, converting code path.

// F32View returns b reinterpreted as little-endian float32 values, sharing
// b's memory. It returns nil for empty b and panics if b is not 4-byte
// aligned or its length is not a multiple of 4 — pinned and arena buffers
// always satisfy both, so a violation is a bug.
//
//zinf:hotpath
func F32View(b []byte) []float32 {
	if len(b) == 0 {
		return nil
	}
	p := unsafe.Pointer(unsafe.SliceData(b))
	if uintptr(p)%4 != 0 || len(b)%4 != 0 {
		panic("tensor: F32View of a misaligned or ragged buffer")
	}
	return unsafe.Slice((*float32)(p), len(b)/4)
}

// HalfView returns b reinterpreted as little-endian fp16 values, sharing b's
// memory. It returns nil for empty b and panics if b is not 2-byte aligned
// or its length is odd.
//
//zinf:hotpath
func HalfView(b []byte) []Half {
	if len(b) == 0 {
		return nil
	}
	p := unsafe.Pointer(unsafe.SliceData(b))
	if uintptr(p)%2 != 0 || len(b)%2 != 0 {
		panic("tensor: HalfView of a misaligned or ragged buffer")
	}
	return unsafe.Slice((*Half)(p), len(b)/2)
}

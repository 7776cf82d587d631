package tensor

import "math"

// Serialization helpers (little endian) for fp32 vectors at byte-stream
// boundaries: checkpoint files and rank-state records. The offload engine's
// NVMe staging buffers hold the same layout but are viewed in place
// (F32View, HalfView) rather than converted.

// F32ToBytes serializes src into b (4 bytes per value, little endian).
// It panics if b is shorter than 4*len(src).
//
//zinf:hotpath
func F32ToBytes(b []byte, src []float32) {
	if len(src) == 0 {
		return
	}
	_ = b[4*len(src)-1]
	for i, f := range src {
		u := math.Float32bits(f)
		b[4*i] = byte(u)
		b[4*i+1] = byte(u >> 8)
		b[4*i+2] = byte(u >> 16)
		b[4*i+3] = byte(u >> 24)
	}
}

// F32FromBytes deserializes b into dst. It panics if b is shorter than
// 4*len(dst).
//
//zinf:hotpath
func F32FromBytes(dst []float32, b []byte) {
	if len(dst) == 0 {
		return
	}
	_ = b[4*len(dst)-1]
	for i := range dst {
		u := uint32(b[4*i]) | uint32(b[4*i+1])<<8 | uint32(b[4*i+2])<<16 | uint32(b[4*i+3])<<24
		dst[i] = math.Float32frombits(u)
	}
}

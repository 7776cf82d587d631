package tensor

import (
	"math"
	"testing"
)

// special covers the bit patterns a converting codec is most likely to
// mangle: NaN payloads (quiet and signalling, both signs), signed zeros,
// subnormals and infinities.
var specialF32 = []uint32{
	0x7fc00000, 0x7fc00001, 0x7fa5a5a5, 0x7f800001, 0xffc00000, 0xff812345, // NaNs
	0x00000000, 0x80000000, // ±0
	0x00000001, 0x007fffff, 0x80000001, 0x807fffff, // subnormals
	0x7f800000, 0xff800000, // ±Inf
	0x3f800000, 0xc0490fdb, 0x7f7fffff, 0x00800000, // ordinary and extremes
}

var specialHalf = []Half{
	0x7e00, 0x7e01, 0x7d55, 0x7c01, 0xfe00, 0xfc01, // NaNs
	0x0000, 0x8000, // ±0
	0x0001, 0x03ff, 0x8001, 0x83ff, // subnormals
	0x7c00, 0xfc00, // ±Inf
	0x3c00, 0xc248, 0x7bff, 0x0400, // ordinary and extremes
}

func TestF32ViewReadsCodecBytesBitIdentically(t *testing.T) {
	src := make([]float32, len(specialF32))
	for i, u := range specialF32 {
		src[i] = math.Float32frombits(u)
	}
	b := make([]byte, 4*len(src))
	F32ToBytes(b, src)
	v := F32View(b)
	if len(v) != len(src) {
		t.Fatalf("view has %d values, want %d", len(v), len(src))
	}
	for i := range v {
		if got := math.Float32bits(v[i]); got != specialF32[i] {
			t.Errorf("value %d: view reads %#08x, codec wrote %#08x", i, got, specialF32[i])
		}
	}
	// Writes through the view are what the codec would have produced.
	back := make([]float32, len(src))
	v[0] = math.Float32frombits(0x7fc0beef)
	F32FromBytes(back, b)
	if got := math.Float32bits(back[0]); got != 0x7fc0beef {
		t.Errorf("write through view decodes to %#08x, want 0x7fc0beef", got)
	}
}

func TestHalfViewReadsCodecBytesBitIdentically(t *testing.T) {
	b := make([]byte, 2*len(specialHalf))
	HalfToBytes(b, specialHalf)
	v := HalfView(b)
	if len(v) != len(specialHalf) {
		t.Fatalf("view has %d values, want %d", len(v), len(specialHalf))
	}
	for i := range v {
		if v[i] != specialHalf[i] {
			t.Errorf("value %d: view reads %#04x, codec wrote %#04x", i, v[i], specialHalf[i])
		}
	}
	back := make([]Half, len(specialHalf))
	v[0] = 0x7e42
	HalfFromBytes(back, b)
	if back[0] != 0x7e42 {
		t.Errorf("write through view decodes to %#04x, want 0x7e42", back[0])
	}
}

func TestViewsOfEmptyAreNil(t *testing.T) {
	if v := F32View(nil); v != nil {
		t.Errorf("F32View(nil) = %v, want nil", v)
	}
	if v := F32View(make([]byte, 0, 8)); v != nil {
		t.Errorf("F32View(empty) = %v, want nil", v)
	}
	if v := HalfView(nil); v != nil {
		t.Errorf("HalfView(nil) = %v, want nil", v)
	}
	if v := HalfView(make([]byte, 0, 8)); v != nil {
		t.Errorf("HalfView(empty) = %v, want nil", v)
	}
}

func TestViewsPanicOnMisalignedOrRagged(t *testing.T) {
	b := make([]byte, 64)
	cases := []struct {
		name string
		f    func()
	}{
		{"F32View misaligned", func() { F32View(b[1:9]) }},
		{"F32View misaligned by 2", func() { F32View(b[2:10]) }},
		{"F32View ragged", func() { F32View(b[:7]) }},
		{"HalfView misaligned", func() { HalfView(b[1:9]) }},
		{"HalfView ragged", func() { HalfView(b[:7]) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", c.name)
				}
			}()
			c.f()
		})
	}
}

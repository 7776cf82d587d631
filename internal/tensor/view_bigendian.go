//go:build !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package tensor

// The offload engine views little-endian on-disk bytes as float32 and fp16
// values in place (view.go), so this package does not build on a big-endian
// (or unlisted) GOARCH. The assignment below is the compile error that says so.
var _ int = "tensor: zero-copy byte views need a little-endian GOARCH (see view.go)"

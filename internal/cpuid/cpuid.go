// Package cpuid answers, once per process, whether the CPU can run the
// four-lane AVX2 force loops (direct.quadAVX2 and chip.tileAVX2). It is the
// only place that asks the processor; there is no flag or environment
// variable that chooses a kernel.
package cpuid

// AVX2 reports whether the CPU has AVX2 and the operating system saves the
// YMM registers across context switches. It is false on every GOARCH but
// amd64.
var AVX2 = hasAVX2()

// Package grape6 is a software reproduction of the system described in
// "Performance evaluation and tuning of GRAPE-6 — towards 40 'real'
// Tflops" (Makino, Kokubo, Fukushige & Daisaka, SC 2003): the
// sixth-generation special-purpose computer for gravitational many-body
// problems, its Hermite individual-block-timestep integration stack, its
// parallel algorithms, and the performance models behind the paper's
// evaluation.
//
// The hardware itself obviously cannot be reproduced in Go; what this
// module provides instead is (a) a functional emulator of the GRAPE-6
// pipeline chip and packaging hierarchy that preserves the machine's
// arithmetic behaviour — fixed-point positions, short-mantissa pipelines,
// and the block-floating-point summation whose partition invariance the
// paper highlights — and (b) a calibrated performance model plus
// discrete-event network simulation that regenerate every figure and
// table of the paper's evaluation section. See DESIGN.md for the full
// system inventory and EXPERIMENTS.md for paper-vs-reproduced results.
//
// Entry points:
//
//   - internal/core: the Simulator facade used by the examples;
//   - cmd/grape6sim: run an N-body integration on the emulated stack;
//   - cmd/grape6bench: regenerate any table or figure;
//   - cmd/grape6calib: inspect workload fits and model breakdowns;
//   - benchmark/: this repository's own speed, end to end and by layer.
package grape6

//go:build race

package topobarrier_test

// scaleTestP is the rank count for the large-P end-to-end tuning tests.
// Under the race detector every matrix word access is instrumented, so the
// tests exercise the same code paths at a quarter of the scale.
const scaleTestP = 256

//go:build !race

package topobarrier_test

// scaleTestP is the rank count for the large-P end-to-end tuning tests: the
// full P=1024 scaling configuration when instrumentation is off.
const scaleTestP = 1024

//go:build race

package perftest

// RaceEnabled reports whether the race detector is instrumenting this build.
// Timing and allocation pins are skipped under -race: instrumentation
// multiplies the cost of atomics and channel edges far more than syscalls and
// allocates shadow state of its own, so neither relative speeds nor
// allocation counts measured there say anything about production builds.
const RaceEnabled = true

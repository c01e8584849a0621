//go:build !race

package perftest

// RaceEnabled reports whether the race detector is instrumenting this build.
const RaceEnabled = false

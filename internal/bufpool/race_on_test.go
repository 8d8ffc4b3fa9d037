//go:build race

package bufpool

// raceEnabled reports that this build runs under the race detector,
// whose instrumentation allocates and distorts allocation counts.
const raceEnabled = true

//go:build race

package viyojit

// raceEnabled reports a build with the race detector, which makes
// sync.Pool drop a random share of what is put back: an allocation bound
// on a path that recycles through a pool does not hold there.
const raceEnabled = true

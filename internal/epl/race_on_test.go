//go:build race

package epl

// raceEnabled reports a -race build, whose sync.Pool drops a quarter of
// what it is given, so allocation counts through a pool vary run to run.
const raceEnabled = true

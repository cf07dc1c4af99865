//go:build race

package twitinfo

// raceEnabled trims the single-goroutine differential test, which the
// race detector slows roughly eightfold and has nothing to find in.
const raceEnabled = true

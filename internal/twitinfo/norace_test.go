//go:build !race

package twitinfo

// raceEnabled trims the differential test; see race_test.go.
const raceEnabled = false

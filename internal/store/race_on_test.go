//go:build race

package store

// raceEnabled reports whether the tests were built with -race.
const raceEnabled = true

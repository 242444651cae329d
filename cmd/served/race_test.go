//go:build race

package main

// raceEnabled reports a race-detector build, where sync.Pool drops a
// share of Puts on purpose, so pooled scratch allocates now and then.
const raceEnabled = true

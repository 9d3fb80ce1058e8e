//go:build race

package core

// raceEnabled reports a -race build, where sync.Pool drops items at random
// and allocation counts mean nothing.
const raceEnabled = true

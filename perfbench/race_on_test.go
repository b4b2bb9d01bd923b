//go:build race

package main

// raceEnabled reports whether the race detector is on: its bookkeeping
// allocates, so allocation counts mean nothing under it.
const raceEnabled = true

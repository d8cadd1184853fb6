//go:build race

package main

// Under the race detector the forecast layer's 320 background model
// fits take minutes; the layer suite is skipped there (TestWorkloads is
// what exercises the harness's goroutines).
func init() { raceEnabled = true }

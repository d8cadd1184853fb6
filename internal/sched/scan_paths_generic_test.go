//go:build !amd64 || purego

package sched

// scanPaths calls f once: this build has only the portable scanOffsets.
func scanPaths(f func(path string)) { f("go") }

//go:build !purego

package sched

// scanPaths calls f once per scanOffsets path this host can take: as
// detected (the AVX quad loop, when the host has AVX) and with useAVX
// forced false (the SSE2 pair loop alone). It restores useAVX.
func scanPaths(f func(path string)) {
	detected := useAVX
	defer func() { useAVX = detected }()
	if detected {
		f("avx")
	}
	useAVX = false
	f("sse2")
}

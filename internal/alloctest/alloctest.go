// Package alloctest counts the heap allocations of a measured loop, in
// total. testing.AllocsPerRun returns a whole-number mean, so a bound-0
// test built on it passes a path that allocates less than once a run —
// a slice that grows by doubling inside the loop, say. A test that
// requires Count to return exactly 0 sees every allocation.
package alloctest

import "runtime"

// Count calls f once to warm up, then runs more times, and returns how
// many heap allocations those runs made in all. Like
// testing.AllocsPerRun it measures with GOMAXPROCS at 1, so only what f
// starts runs beside it.
func Count(runs int, f func()) uint64 {
	before, after := measure(runs, f)
	return after.Mallocs - before.Mallocs
}

// Bytes is Count for the bytes those runs allocated (the runtime's
// size classes and pages included), for a path whose allocations are
// bounded by the data it moves rather than by zero.
func Bytes(runs int, f func()) uint64 {
	before, after := measure(runs, f)
	return after.TotalAlloc - before.TotalAlloc
}

// measure warms f up and returns the memory statistics before and
// after runs more calls, at GOMAXPROCS 1.
func measure(runs int, f func()) (before, after runtime.MemStats) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return before, after
}

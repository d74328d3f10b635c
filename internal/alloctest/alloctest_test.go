package alloctest

import "testing"

var sink []int

// TestCountSeesRareAllocations: a loop that appends one int a run
// allocates only when its slice doubles, 7 times in 100 runs, which
// testing.AllocsPerRun rounds down to 0 a run; Count reports all 7.
func TestCountSeesRareAllocations(t *testing.T) {
	grow := func() { sink = append(sink, 1) }
	sink = nil
	if n := testing.AllocsPerRun(100, grow); n != 0 {
		t.Fatalf("testing.AllocsPerRun reports %.0f a run; the rig expects its mean to round down to 0", n)
	}
	sink = nil
	if n := Count(100, grow); n == 0 || n > 10 {
		t.Fatalf("Count reports %d allocations for 101 appends from empty, want the handful of doublings", n)
	}
	if n := Count(100, func() {}); n != 0 {
		t.Fatalf("Count reports %d allocations for an empty loop", n)
	}
}

var buf []byte

// TestBytesCountsWhatRunsAllocate: ten 1000-byte slices are ten
// 1024-byte size-class objects, and a loop that allocates nothing
// counts no bytes.
func TestBytesCountsWhatRunsAllocate(t *testing.T) {
	if n := Bytes(10, func() { buf = make([]byte, 1000) }); n != 10*1024 {
		t.Fatalf("Bytes reports %d bytes for ten 1000-byte slices, want %d", n, 10*1024)
	}
	if n := Bytes(10, func() {}); n != 0 {
		t.Fatalf("Bytes reports %d bytes for an empty loop", n)
	}
}

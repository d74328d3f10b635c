package netcache

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"repro/internal/alloctest"
)

// fakeTP delivers broadcasts synchronously to a set of replicas,
// optionally dropping or delaying nothing — ordering preserved, like
// the ring.
type fakeTP struct {
	replicas []*Cache
	refuse   bool
	sent     int
}

func (f *fakeTP) Broadcast(region uint8, off uint32, data []byte) bool {
	if f.refuse {
		return false
	}
	f.sent++
	for _, r := range f.replicas {
		r.Apply(region, off, data)
	}
	return true
}

func newReplicated(n, regionSize int) ([]*Cache, *fakeTP, *Writer) {
	var all []*Cache
	for i := 0; i < n; i++ {
		c := New()
		c.AddRegion(1, regionSize)
		all = append(all, c)
	}
	tp := &fakeTP{replicas: all[1:]} // writer's local is all[0]
	return all, tp, NewWriter(all[0], tp)
}

func TestWriteReadRoundTrip(t *testing.T) {
	all, _, w := newReplicated(4, 256)
	r := Record{Region: 1, Off: 16, Size: 32}
	data := bytes.Repeat([]byte{0xAB}, 32)
	if err := w.WriteRecord(r, data); err != nil {
		t.Fatal(err)
	}
	for i, c := range all {
		got, ok := c.TryRead(r)
		if !ok {
			t.Fatalf("replica %d: read failed", i)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("replica %d: data mismatch", i)
		}
		if c.Version(r) != 1 {
			t.Fatalf("replica %d: version = %d", i, c.Version(r))
		}
	}
}

func TestVersionIncrements(t *testing.T) {
	_, _, w := newReplicated(2, 128)
	r := Record{Region: 1, Off: 0, Size: 8}
	for i := 1; i <= 10; i++ {
		if err := w.WriteRecord(r, []byte{byte(i), 0, 0, 0, 0, 0, 0, 0}); err != nil {
			t.Fatal(err)
		}
		if v := w.Local.Version(r); v != uint64(i) {
			t.Fatalf("version after %d writes = %d", i, v)
		}
	}
}

func TestTornReadDetected(t *testing.T) {
	c := New()
	c.AddRegion(1, 128)
	r := Record{Region: 1, Off: 0, Size: 16}
	w := NewWriter(c, nil)
	if err := w.WriteRecord(r, bytes.Repeat([]byte{1}, 16)); err != nil {
		t.Fatal(err)
	}
	// Simulate a write in progress: bump head only, as a replica would
	// see after receiving the head update but not yet the tail.
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], 2)
	c.Apply(1, r.headOff(), cnt[:])
	if _, ok := c.TryRead(r); ok {
		t.Fatal("torn record read as consistent")
	}
	// Data arrives... still torn.
	c.Apply(1, r.dataOff(), bytes.Repeat([]byte{2}, 16))
	if _, ok := c.TryRead(r); ok {
		t.Fatal("half-written record read as consistent")
	}
	// Tail arrives: consistent again.
	c.Apply(1, r.tailOff(), cnt[:])
	got, ok := c.TryRead(r)
	if !ok {
		t.Fatal("completed record unreadable")
	}
	if got[0] != 2 {
		t.Fatal("stale data after completed write")
	}
}

// TestReaderNeverTornMidStream replays the replication packet stream of
// many writes and asserts that at every intermediate point a reader
// sees either the old or the new value, never a mix.
func TestReaderNeverTornMidStream(t *testing.T) {
	src := New()
	src.AddRegion(1, 256)
	dst := New()
	dst.AddRegion(1, 256)
	r := Record{Region: 1, Off: 8, Size: 24}

	// Transport that records the update stream.
	var stream []struct {
		off  uint32
		data []byte
	}
	rec := transportFunc(func(region uint8, off uint32, data []byte) bool {
		cp := make([]byte, len(data))
		copy(cp, data)
		stream = append(stream, struct {
			off  uint32
			data []byte
		}{off, cp})
		return true
	})
	w := NewWriter(src, rec)

	known := map[string]bool{string(make([]byte, 24)): true} // initial zero value
	for i := 0; i < 50; i++ {
		val := bytes.Repeat([]byte{byte(i + 1)}, 24)
		known[string(val)] = true
		if err := w.WriteRecord(r, val); err != nil {
			t.Fatal(err)
		}
	}
	// Replay, checking after every packet.
	for i, u := range stream {
		dst.Apply(1, u.off, u.data)
		if got, ok := dst.TryRead(r); ok {
			if !known[string(got)] {
				t.Fatalf("packet %d: reader saw torn value %v", i, got[:4])
			}
			// A consistent read must be uniform (all bytes equal) by
			// construction of the test values.
			for _, b := range got {
				if b != got[0] {
					t.Fatalf("packet %d: mixed record %v", i, got)
				}
			}
		}
	}
	final, ok := dst.TryRead(r)
	if !ok || final[0] != 50 {
		t.Fatalf("final value wrong: %v ok=%v", final[:4], ok)
	}
}

type transportFunc func(uint8, uint32, []byte) bool

func (f transportFunc) Broadcast(region uint8, off uint32, data []byte) bool {
	return f(region, off, data)
}

// TestWriteRecordAllocatesNothing: the counter bytes a write lends its
// transport live in the Writer, so a record write allocates nothing —
// it was one allocation a write when they were a local array that
// escaped through the Transport call.
func TestWriteRecordAllocatesNothing(t *testing.T) {
	_, _, w := newReplicated(3, 64)
	r := Record{Region: 1, Off: 0, Size: 8}
	data := make([]byte, 8)
	if n := alloctest.Count(100, func() { w.WriteRecord(r, data) }); n != 0 {
		t.Fatalf("100 record writes allocate %d times, want 0", n)
	}
}

// TestWriteRecordReentered: a write re-entered from inside the
// transport — a DMA done callback the pump runs, before the bytes it was
// lent are copied — leaves the outer write's counters alone.
func TestWriteRecordReentered(t *testing.T) {
	src, dst := New(), New()
	src.AddRegion(1, 64)
	dst.AddRegion(1, 64)
	a, b := Record{Region: 1, Off: 0, Size: 8}, Record{Region: 1, Off: 32, Size: 8}
	var w *Writer
	reenter := false
	w = NewWriter(src, transportFunc(func(region uint8, off uint32, data []byte) bool {
		if reenter {
			reenter = false
			if err := w.WriteRecord(b, make([]byte, 8)); err != nil {
				t.Fatal(err)
			}
		}
		dst.Apply(region, off, data)
		return true
	}))
	for i := 0; i < 4; i++ {
		w.WriteRecord(a, make([]byte, 8))
	}
	reenter = true
	if err := w.WriteRecord(a, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		c    *Cache
	}{{"writer", src}, {"replica", dst}} {
		name, c := tc.name, tc.c
		if _, ok := c.TryRead(a); !ok || c.Version(a) != 5 {
			t.Errorf("%s: record a consistent = %v at version %d, want true at 5", name, ok, c.Version(a))
		}
		if _, ok := c.TryRead(b); !ok || c.Version(b) != 1 {
			t.Errorf("%s: record b consistent = %v at version %d, want true at 1", name, ok, c.Version(b))
		}
	}
}

func TestWriteSizeMismatch(t *testing.T) {
	c := New()
	c.AddRegion(1, 64)
	w := NewWriter(c, nil)
	r := Record{Region: 1, Off: 0, Size: 8}
	if err := w.WriteRecord(r, []byte{1, 2}); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestTransportRefusalSurfaces(t *testing.T) {
	all, tp, w := newReplicated(2, 64)
	tp.refuse = true
	r := Record{Region: 1, Off: 0, Size: 8}
	if err := w.WriteRecord(r, make([]byte, 8)); err == nil {
		t.Fatal("refused transport not surfaced")
	}
	_ = all
}

func TestApplyBounds(t *testing.T) {
	c := New()
	c.AddRegion(1, 16)
	c.Apply(1, 100, []byte{1})                     // beyond region: ignored
	c.Apply(9, 0, []byte{1})                       // absent region: ignored
	c.Apply(1, 12, []byte{1, 2, 3, 4, 5, 6, 7, 8}) // clipped at end
	if c.Snapshot(1)[15] != 4 {
		t.Fatalf("clipped apply wrong: %v", c.Snapshot(1))
	}
	if c.Applied != 1 {
		t.Fatalf("applied = %d", c.Applied)
	}
}

func TestTryReadOutOfRange(t *testing.T) {
	c := New()
	c.AddRegion(1, 32)
	if _, ok := c.TryRead(Record{Region: 1, Off: 20, Size: 16}); ok {
		t.Fatal("out-of-range record readable")
	}
	if _, ok := c.TryRead(Record{Region: 5, Off: 0, Size: 8}); ok {
		t.Fatal("absent region readable")
	}
	if v := c.Version(Record{Region: 5, Off: 0, Size: 8}); v != 0 {
		t.Fatal("absent region version nonzero")
	}
}

func TestRegions(t *testing.T) {
	c := New()
	c.AddRegion(3, 8)
	c.AddRegion(7, 8)
	ids := c.Regions()
	if len(ids) != 2 {
		t.Fatalf("regions = %v", ids)
	}
}

// TestQuickWriteReadAnyPayload is the property-based round trip.
func TestQuickWriteReadAnyPayload(t *testing.T) {
	f := func(payload []byte) bool {
		if len(payload) == 0 || len(payload) > 64 {
			return true
		}
		all, _, w := newReplicated(3, 128)
		r := Record{Region: 1, Off: 4, Size: len(payload)}
		if err := w.WriteRecord(r, payload); err != nil {
			return false
		}
		for _, c := range all {
			got, ok := c.TryRead(r)
			if !ok || !bytes.Equal(got, payload) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotOncePerVersion: a region's snapshot is made by the first
// Snapshot after a change and shared until the next one, so streaming
// it again with no write between copies nothing; Apply and AddRegion
// drop it, and a later write never shows in a snapshot already handed
// out.
func TestSnapshotOncePerVersion(t *testing.T) {
	c := New()
	c.AddRegion(1, 64)
	if c.Snapshot(9) != nil {
		t.Fatal("an absent region has a snapshot")
	}
	c.Apply(1, 0, []byte{7})
	first := c.Snapshot(1)
	if first[0] != 7 || len(first) != 64 {
		t.Fatalf("snapshot % x, want the region's 64 bytes", first[:4])
	}
	if n := alloctest.Count(10, func() { c.Snapshot(1) }); n != 0 || &c.Snapshot(1)[0] != &first[0] {
		t.Fatalf("Snapshots with no write between allocate %d times or return another copy", n)
	}
	c.Apply(1, 0, []byte{8})
	if first[0] != 7 {
		t.Fatal("a write reached a snapshot already handed out")
	}
	second := c.Snapshot(1)
	if second[0] != 8 || &second[0] == &first[0] {
		t.Fatal("Apply did not drop the snapshot")
	}
	c.AddRegion(1, 32)
	if third := c.Snapshot(1); len(third) != 32 || third[0] != 0 {
		t.Fatal("AddRegion did not drop the snapshot")
	}
}

// Package netcache implements AmpNet's Network Cache (paper, slides 2,
// 9, 10): the same memory image kept at every node, so that nodes can
// leave without losing data, new nodes are assimilated with a cache
// refresh, and the management database is ubiquitous.
//
// Consistency is the paper's "Lamport counter" scheme (slide 9) — a
// sequence lock with a counter at the start and end of every record:
//
//	To read:  read first counter, read last counter; if they agree,
//	          read the data, then re-read the first counter; if it
//	          changed, start over.
//	To write: just write (bump first counter, write data, write last).
//
// Coherence between concurrent *writers* is explicitly not the cache's
// job: "write conflicts are handled at the user level using AmpNet
// locking primitives" (slide 10, package netsem). The seqlock therefore
// guarantees only that readers never observe a torn record while a
// single writer (per record) is active — exactly the property the
// tests and experiment E5 verify.
//
// Updates are written through to the NIC and broadcast to every replica
// (no host-side caching, slide 10); on the simulated fabric that is a
// stream of DMA MicroPackets which each node applies to its local
// replica in arrival order. A ring delivers broadcasts from one source
// in FIFO order, which is what makes the head→data→tail write sequence
// arrive intact.
package netcache

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/detmap"
)

// CounterSize is the size of each of the two record counters.
const CounterSize = 8

// RecordOverhead is the extra bytes a record occupies beyond its data.
const RecordOverhead = 2 * CounterSize

// Cache is one node's replica of the network cache: a set of numbered
// regions, each a flat byte array.
type Cache struct {
	regions map[uint8][]byte
	// snaps holds the regions' snapshots (Snapshot), made on first use;
	// a write to a region drops its entry.
	snaps map[uint8][]byte

	// Applied counts remote updates applied to this replica.
	Applied uint64
}

// New returns an empty replica.
func New() *Cache {
	return &Cache{regions: map[uint8][]byte{}}
}

// AddRegion allocates region id with the given size. Adding an existing
// region re-allocates it (used by cache refresh).
func (c *Cache) AddRegion(id uint8, size int) {
	c.regions[id] = make([]byte, size)
	delete(c.snaps, id)
}

// Snapshot returns a copy of region id's bytes as they stand, nil if
// the region is absent: what a cache refresh streams. The copy is
// shared and never written: the first Snapshot after a change to the
// region makes it, and every later one returns the same slice until
// Apply or AddRegion changes the region again, so a sponsor streams one
// copy to any number of joiners.
func (c *Cache) Snapshot(id uint8) []byte {
	if snap, ok := c.snaps[id]; ok {
		return snap
	}
	buf, ok := c.regions[id]
	if !ok {
		return nil
	}
	snap := slices.Clone(buf)
	if c.snaps == nil {
		c.snaps = map[uint8][]byte{}
	}
	c.snaps[id] = snap
	return snap
}

// Regions returns the region ids present, in ascending order.
func (c *Cache) Regions() []uint8 {
	return detmap.SortedKeys(c.regions)
}

// Apply writes raw bytes into a region at offset — the receive path for
// replicated updates and cache refresh. Out-of-range writes are
// truncated (a real NIC would raise a diagnostic; Gaps are tracked by
// the DMA layer).
func (c *Cache) Apply(region uint8, off uint32, data []byte) {
	buf, ok := c.regions[region]
	if !ok {
		return
	}
	if int(off) >= len(buf) {
		return
	}
	copy(buf[off:], data)
	delete(c.snaps, region)
	c.Applied++
}

// Record is a seqlock-protected cell of fixed data size within a
// region: [counter | data | counter].
type Record struct {
	Region uint8
	Off    uint32
	Size   int // data bytes, excluding the two counters
}

// Span returns the total bytes the record occupies.
func (r Record) Span() int { return r.Size + RecordOverhead }

// headOff/dataOff/tailOff locate the record parts.
func (r Record) headOff() uint32 { return r.Off }
func (r Record) dataOff() uint32 { return r.Off + CounterSize }
func (r Record) tailOff() uint32 { return r.Off + CounterSize + uint32(r.Size) }

// TryRead performs one seqlock read attempt against the local replica.
// It returns (data, true) on a consistent snapshot, or (nil, false) if
// a write was in progress and the caller should retry — "wait and go to
// Start" in the paper's words.
func (c *Cache) TryRead(r Record) ([]byte, bool) {
	buf, ok := c.regions[r.Region]
	if !ok || int(r.Off)+r.Span() > len(buf) {
		return nil, false
	}
	head := binary.LittleEndian.Uint64(buf[r.headOff():])
	tail := binary.LittleEndian.Uint64(buf[r.tailOff():])
	if head != tail {
		return nil, false // write in progress
	}
	data := make([]byte, r.Size)
	copy(data, buf[r.dataOff():])
	head2 := binary.LittleEndian.Uint64(buf[r.headOff():])
	if head2 != head {
		return nil, false // write started during the copy
	}
	return data, true
}

// Version returns the record's current head counter (its version).
func (c *Cache) Version(r Record) uint64 {
	buf, ok := c.regions[r.Region]
	if !ok || int(r.Off)+r.Span() > len(buf) {
		return 0
	}
	return binary.LittleEndian.Uint64(buf[r.headOff():])
}

// Transport broadcasts ordered region updates to every replica. The DMA
// layer implements it over the ring; tests use in-memory fakes. Send
// returns false on backpressure, and callers retry — updates must not
// be silently lost. data is valid for the call; copy to keep.
type Transport interface {
	Broadcast(region uint8, off uint32, data []byte) bool
}

// Writer performs replicated record writes from one node. The paper's
// "just write" sequence: bump head, write data, write tail — each step
// write-through (applied locally, then broadcast).
//
// One Writer per record (or a netsem lock around it) is the caller's
// responsibility, per slide 10.
type Writer struct {
	Local *Cache
	TP    Transport

	// Writes counts completed record writes.
	Writes uint64

	// cnt holds the counter bytes a write lends the transport, so a
	// write builds nothing. Taken, not shared: a write re-entered before
	// this one returns — from a DMA done callback the transport's pump
	// runs — finds none and builds its own, leaving ours unchanged.
	cnt *[CounterSize]byte
}

// NewWriter returns a writer that applies locally to cache and
// replicates through tp.
func NewWriter(local *Cache, tp Transport) *Writer {
	return &Writer{Local: local, TP: tp}
}

// put applies locally and broadcasts; it retries are the transport's
// concern (the DMA layer queues), so a false return here is a hard
// error surfaced to the caller.
func (w *Writer) put(region uint8, off uint32, data []byte) error {
	w.Local.Apply(region, off, data)
	if w.TP != nil && !w.TP.Broadcast(region, off, data) {
		return fmt.Errorf("netcache: transport refused update region=%d off=%d", region, off)
	}
	return nil
}

// WriteRecord writes data into record r using the Lamport-counter
// protocol. len(data) must equal r.Size.
func (w *Writer) WriteRecord(r Record, data []byte) error {
	return w.WriteRecordAt(r, data, w.Local.Version(r)+1)
}

// WriteRecordAt is WriteRecord with an explicit version for the
// counters, used by DoubleBuffer to keep a global order across two
// alternating records.
func (w *Writer) WriteRecordAt(r Record, data []byte, version uint64) error {
	if len(data) != r.Size {
		return fmt.Errorf("netcache: record size %d, got %d bytes", r.Size, len(data))
	}
	cnt := w.cnt
	w.cnt = nil
	if cnt == nil {
		cnt = new([CounterSize]byte)
	}
	defer func() { w.cnt = cnt }()
	binary.LittleEndian.PutUint64(cnt[:], version)
	// 1. head counter — readers now see head != tail and back off.
	if err := w.put(r.Region, r.headOff(), cnt[:]); err != nil {
		return err
	}
	// 2. the data itself.
	if err := w.put(r.Region, r.dataOff(), data); err != nil {
		return err
	}
	// 3. tail counter — record consistent again.
	if err := w.put(r.Region, r.tailOff(), cnt[:]); err != nil {
		return err
	}
	w.Writes++
	return nil
}

// DoubleBuffer is a crash-safe checkpoint cell: two alternating seqlock
// records. The writer always overwrites the older slot with a version
// one above the newer; the reader returns the newest *consistent* slot.
// A writer dying mid-write can therefore tear at most the slot it was
// writing — the previously committed checkpoint survives, which is what
// makes the paper's "no loss of data" failover claim (slide 19) hold
// even when the primary dies inside a checkpoint.
type DoubleBuffer struct {
	A, B Record
}

// NewDoubleBuffer lays out a double buffer of the given data size at
// offset off in region.
func NewDoubleBuffer(region uint8, off uint32, size int) DoubleBuffer {
	return DoubleBuffer{
		A: Record{Region: region, Off: off, Size: size},
		B: Record{Region: region, Off: off + uint32(size+RecordOverhead), Size: size},
	}
}

// Span returns the total bytes the double buffer occupies.
func (d DoubleBuffer) Span() int { return d.A.Span() + d.B.Span() }

// Read returns the newest consistent checkpoint and its version.
// ok=false only if neither slot has ever been written consistently.
func (d DoubleBuffer) Read(c *Cache) (data []byte, version uint64, ok bool) {
	da, oka := c.TryRead(d.A)
	db, okb := c.TryRead(d.B)
	va, vb := c.Version(d.A), c.Version(d.B)
	switch {
	case oka && okb:
		if va >= vb {
			if va == 0 {
				return nil, 0, false // never written
			}
			return da, va, true
		}
		return db, vb, true
	case oka:
		if va == 0 {
			return nil, 0, false
		}
		return da, va, true
	case okb:
		if vb == 0 {
			return nil, 0, false
		}
		return db, vb, true
	default:
		return nil, 0, false
	}
}

// Write commits a new checkpoint into the older slot.
func (d DoubleBuffer) Write(w *Writer, data []byte) error {
	va, vb := w.Local.Version(d.A), w.Local.Version(d.B)
	next := va + 1
	target := d.A
	if vb > va {
		next = vb + 1
	}
	if va >= vb {
		target = d.B // overwrite the older (B) slot
	}
	return w.WriteRecordAt(target, data, next)
}

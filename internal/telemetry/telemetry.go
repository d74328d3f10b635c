// Package telemetry is the wall-clock half of the engine's two-plane
// observability. The deterministic plane is plain counters the engine
// keeps itself (parsim.Stats and parsim.ShardStat), derived only from
// simulated state, which surface in Report.Det and Report.Summary().
//
// The wall-clock plane (Clock, Recorder, Span, Stopwatch) measures real
// time. It is the ONE package in the tree that may read the wall clock:
// the ampvet `walltime` analyzer exempts exactly this package and flags
// `time.Now`-family calls everywhere else, so every wall-clock read in
// the engine is forced through an injectable Clock and is structurally
// excluded from Report bytes. Tests inject ManualClock to make span
// timelines reproducible; production code uses Wall.
//
// Recorder is lock-free in the engine's sense: a shard's buffer is
// appended to only by the goroutine running that shard's window (the
// same one-writer-at-a-time discipline the engine uses for capture
// queues), and the
// coordinator owns a separate buffer. Spans() merges them and must only
// be called while the shards are parked — between windows, or after the
// run.
package telemetry

import (
	"cmp"
	"slices"
	"sync/atomic"
	"time"
)

// Clock supplies wall-clock readings in nanoseconds. Engine code never
// calls the time package directly; it asks a Clock, so tests can make
// wall-plane output deterministic.
type Clock interface {
	Now() int64
}

// Wall is the real wall clock. Readings are monotonic nanoseconds since
// an arbitrary process-start base, not Unix time: span math only ever
// uses differences, trace timestamps are relative, and the monotonic
// read path is markedly cheaper than a full wall-clock read — which
// matters at two reads per span on the engine's window hot path.
var Wall Clock = wallClock{}

var wallBase = time.Now()

type wallClock struct{}

func (wallClock) Now() int64 { return int64(time.Since(wallBase)) }

// ManualClock is a deterministic Clock for tests: every Now() returns
// the current reading and advances it by Step. Step 0 freezes time.
// Reads are atomic, so concurrent use is race-free, though the
// interleaving (and hence which goroutine sees which tick) still
// follows the host scheduler — fine for the wall plane, which is never
// part of Report bytes.
type ManualClock struct {
	t    atomic.Int64
	step int64
}

// NewManualClock returns a ManualClock starting at start that advances
// by step on every reading.
func NewManualClock(start, step int64) *ManualClock {
	c := &ManualClock{step: step}
	c.t.Store(start)
	return c
}

// Now returns the current reading and advances the clock by Step.
func (c *ManualClock) Now() int64 { return c.t.Add(c.step) - c.step }

// Set jumps the clock to t.
func (c *ManualClock) Set(t int64) { c.t.Store(t) }

// SpanKind labels what interval of engine work a Span covers.
type SpanKind uint8

const (
	// SpanWindow: coordinator — one lookahead window, from grant until
	// every shard is parked on the target again.
	SpanWindow SpanKind = iota
	// SpanRun: shard — its kernel executing inside one window. The gap
	// between a shard's run span and the enclosing window span is that
	// shard's barrier wait. In a window the coordinator ran alone, the
	// shards' run spans are the window's interval divided by the events
	// each fired, not timed one by one (parsim.Engine.soloRunSpans).
	SpanRun
	// SpanExchange: coordinator — the barrier drain: collect captures,
	// canonical sort, deliver cross-shard frames and route writes.
	SpanExchange
	// SpanAction: coordinator — one fence's action batch (plan events,
	// loads) executing with all shards parked.
	SpanAction
)

var spanKindNames = [...]string{
	SpanWindow:   "window",
	SpanRun:      "run",
	SpanExchange: "exchange",
	SpanAction:   "action",
}

func (k SpanKind) String() string {
	if int(k) < len(spanKindNames) {
		return spanKindNames[k]
	}
	return "span?"
}

// Span is one recorded wall-clock interval.
type Span struct {
	Shard int      // timeline row: 0..n-1 = shard, -1 = coordinator
	Kind  SpanKind //
	Start int64    // wall ns
	End   int64    // wall ns
	VT    int64    // virtual-time anchor (window target etc.), ns; -1 if none
	Seq   uint64   // per-buffer sequence, deterministic tie-break
}

// Dur is the span's wall duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// spanRec is the in-buffer storage form of a Span: 32 bytes against
// Span's 48. Seq is implicit (the record's index in its buffer) and
// shard/kind pack into the trailing padding — the engine streams a
// span per shard per window, so buffer write traffic competes with the
// simulation's own cache footprint and every byte shows up as overhead.
type spanRec struct {
	start, end, vt int64
	shard          int16
	kind           SpanKind
}

type spanBuf struct {
	spans []spanRec
}

// spanBufChunk is the first allocation's capacity: engine runs record
// spans per window, so buffers jump to useful sizes immediately instead
// of doubling up through tiny appends on the hot path.
const spanBufChunk = 4096

func (b *spanBuf) add(shard int, k SpanKind, start, end, vt int64) {
	if b.spans == nil {
		b.spans = make([]spanRec, 0, spanBufChunk)
	}
	b.spans = append(b.spans, spanRec{start: start, end: end, vt: vt, shard: int16(shard), kind: k})
}

// Recorder collects wall-clock spans for one run. All methods are
// nil-receiver-safe no-ops, so engine hot paths stay branch-cheap when
// telemetry is off. Shard(i, ...) appends to shard i's private buffer
// and must be called only by the goroutine running shard i; Coord and
// CoordSpan append to the coordinator's buffer and must be called only
// from the driver goroutine. EnsureShards sizes the shard buffers and
// must run before the shard goroutines do.
type Recorder struct {
	clock  Clock
	coord  spanBuf
	shards []*spanBuf
}

// NewRecorder returns a Recorder reading clock (nil means Wall).
func NewRecorder(clock Clock) *Recorder {
	if clock == nil {
		clock = Wall
	}
	return &Recorder{clock: clock}
}

// EnsureShards grows the per-shard buffers to at least n. Call once,
// single-threaded, before shard goroutines start recording.
func (r *Recorder) EnsureShards(n int) {
	if r == nil {
		return
	}
	for len(r.shards) < n {
		r.shards = append(r.shards, &spanBuf{})
	}
}

// Begin reads the clock to start a span; 0 on a nil recorder.
func (r *Recorder) Begin() int64 {
	if r == nil {
		return 0
	}
	return r.clock.Now()
}

// Shard records [start, now] on shard's own buffer and returns now, so
// a goroutine running shards back to back starts the next span on the
// reading that ended this one. Spans for shards EnsureShards never
// sized are dropped; a nil recorder returns 0.
func (r *Recorder) Shard(shard int, k SpanKind, start, vt int64) int64 {
	if r == nil {
		return 0
	}
	now := r.clock.Now()
	if shard >= 0 && shard < len(r.shards) {
		r.shards[shard].add(shard, k, start, now, vt)
	}
	return now
}

// Coord records [start, now] on the coordinator row.
func (r *Recorder) Coord(k SpanKind, start, vt int64) {
	if r == nil {
		return
	}
	r.coord.add(-1, k, start, r.clock.Now(), vt)
}

// CoordSpan records an explicit [start, end] interval from the driver
// goroutine, displayed on shard's row (shard -1 is the coordinator row).
func (r *Recorder) CoordSpan(shard int, k SpanKind, start, end, vt int64) {
	if r == nil {
		return
	}
	r.coord.add(shard, k, start, end, vt)
}

// Reset drops all recorded spans but keeps the buffers' capacity, so a
// recorder reused across runs (per-run profiles, steady-state overhead
// benchmarks) records the next run allocation-free. Call only while the
// shards are parked, and never between the two Decompose snapshots of a
// delta measurement.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.coord.spans = r.coord.spans[:0]
	for _, b := range r.shards {
		b.spans = b.spans[:0]
	}
}

// Len is the total number of recorded spans.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	n := len(r.coord.spans)
	for _, b := range r.shards {
		n += len(b.spans)
	}
	return n
}

// Spans returns a merged copy of all buffers in compareSpans order.
// Call only while the shards are parked — between windows or after the
// run — or the read races the shard writers.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	out := make([]Span, 0, r.Len())
	for _, b := range append([]*spanBuf{&r.coord}, r.shards...) {
		for i, s := range b.spans {
			out = append(out, Span{Shard: int(s.shard), Kind: s.kind,
				Start: s.start, End: s.end, VT: s.vt, Seq: uint64(i)})
		}
	}
	slices.SortStableFunc(out, compareSpans)
	return out
}

// compareSpans is the one span order, (Start, Shard, Kind, Seq): Spans
// returns it and WriteTrace emits it.
func compareSpans(a, b Span) int {
	return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.Shard, b.Shard),
		cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.Seq, b.Seq))
}

// Stopwatch measures an elapsed wall interval through a Clock — the
// sanctioned replacement for `time.Since(start)` in operator-facing
// progress prints outside this package.
type Stopwatch struct {
	c     Clock
	start int64
}

// StartStopwatch starts a stopwatch on clock (nil means Wall).
func StartStopwatch(clock Clock) Stopwatch {
	if clock == nil {
		clock = Wall
	}
	return Stopwatch{c: clock, start: clock.Now()}
}

// Elapsed is the wall time since the stopwatch started.
func (s Stopwatch) Elapsed() time.Duration {
	if s.c == nil {
		return 0
	}
	return time.Duration(s.c.Now() - s.start)
}

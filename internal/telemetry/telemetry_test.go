package telemetry

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
)

// TestManualClock pins the deterministic clock: fixed start, fixed
// step, Set jumps.
func TestManualClock(t *testing.T) {
	c := NewManualClock(100, 10)
	for i, want := range []int64{100, 110, 120} {
		if got := c.Now(); got != want {
			t.Fatalf("reading %d: got %d, want %d", i, got, want)
		}
	}
	c.Set(5)
	if got := c.Now(); got != 5 {
		t.Fatalf("after Set(5): got %d", got)
	}
}

// TestRecorderNilSafe: every method is a no-op on a nil recorder, so
// engine hot paths need no telemetry branches.
func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	if got := r.Begin(); got != 0 {
		t.Fatalf("nil Begin: %d", got)
	}
	r.EnsureShards(4)
	r.Shard(0, SpanRun, 0, 0)
	r.Coord(SpanWindow, 0, 0)
	r.CoordSpan(1, SpanAction, 0, 1, 0)
	if r.Len() != 0 || r.Spans() != nil {
		t.Fatal("nil recorder accumulated spans")
	}
}

// TestRecorderMergeOrder: Spans() merges coordinator + shard buffers
// into (Start, Shard, Seq) order regardless of recording order.
func TestRecorderMergeOrder(t *testing.T) {
	clk := NewManualClock(1000, 100)
	r := NewRecorder(clk)
	r.EnsureShards(2)

	s0 := r.Begin() // 1000
	r.Shard(1, SpanRun, s0, 500)
	r.Shard(0, SpanRun, s0, 500)
	r.Coord(SpanWindow, s0, 500)
	r.CoordSpan(-1, SpanExchange, 900, 950, 500)

	spans := r.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	if spans[0].Kind != SpanExchange || spans[0].Start != 900 {
		t.Fatalf("first span should be the explicit exchange: %+v", spans[0])
	}
	// Same Start 1000 → shard order -1 (window), 0, 1.
	if spans[1].Shard != -1 || spans[2].Shard != 0 || spans[3].Shard != 1 {
		t.Fatalf("tie-break order wrong: %+v", spans[1:])
	}
	// Out-of-range shard spans are dropped, not grown racily.
	r.Shard(7, SpanRun, 0, 0)
	if r.Len() != 4 {
		t.Fatal("out-of-range shard span was not dropped")
	}
}

// TestWriteTraceGolden: a fixed span set serializes to exactly these
// bytes — the export format is part of the repo's contract (CI smokes
// parse it, Perfetto loads it).
func TestWriteTraceGolden(t *testing.T) {
	spans := []Span{
		{Shard: -1, Kind: SpanWindow, Start: 1000, End: 9000, VT: 245760},
		{Shard: 0, Kind: SpanRun, Start: 1200, End: 4200, VT: 245760},
		{Shard: 1, Kind: SpanRun, Start: 1300, End: 8100, VT: 245760},
		{Shard: -1, Kind: SpanExchange, Start: 9000, End: 9800, VT: 245760},
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	want := `{"traceEvents":[
{"name":"process_name","ph":"M","pid":0,"args":{"name":"ampsim parallel engine"}},
{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"coordinator"}},
{"name":"thread_name","ph":"M","pid":0,"tid":1,"args":{"name":"shard 0"}},
{"name":"thread_name","ph":"M","pid":0,"tid":2,"args":{"name":"shard 1"}},
{"name":"window","cat":"engine","ph":"X","ts":1.000,"dur":8.000,"pid":0,"tid":0,"args":{"vt_ns":245760}},
{"name":"run","cat":"engine","ph":"X","ts":1.200,"dur":3.000,"pid":0,"tid":1,"args":{"vt_ns":245760}},
{"name":"run","cat":"engine","ph":"X","ts":1.300,"dur":6.800,"pid":0,"tid":2,"args":{"vt_ns":245760}},
{"name":"exchange","cat":"engine","ph":"X","ts":9.000,"dur":0.800,"pid":0,"tid":0,"args":{"vt_ns":245760}}
]}
`
	if got := buf.String(); got != want {
		t.Fatalf("trace bytes drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// WriteTrace sorts what it is given: the same spans reversed export
	// the same bytes.
	reversed := slices.Clone(spans)
	slices.Reverse(reversed)
	var rev bytes.Buffer
	if err := WriteTrace(&rev, reversed); err != nil {
		t.Fatal(err)
	}
	if rev.String() != want {
		t.Fatalf("reversed input exported different bytes:\n%s", rev.String())
	}
	// And the bytes must be real JSON of the Chrome trace shape.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 8 {
		t.Fatalf("parsed %d events, want 8", len(doc.TraceEvents))
	}
}

// TestDecompose: the busy/wait split bench/ reports as parsim.*_share.
func TestDecompose(t *testing.T) {
	spans := []Span{
		{Shard: -1, Kind: SpanWindow, Start: 0, End: 100},
		{Shard: -1, Kind: SpanExchange, Start: 100, End: 120},
		{Shard: 0, Kind: SpanRun, Start: 0, End: 90},
		{Shard: 1, Kind: SpanRun, Start: 0, End: 30},
		{Shard: -1, Kind: SpanAction, Start: 120, End: 130},
	}
	d := Decompose(spans)
	if d.Shards != 2 || d.Windows != 1 {
		t.Fatalf("shape: %+v", d)
	}
	// Capacity = 2 shards × (100+20+10) = 260; busy = 120.
	if got, want := d.BusyFrac(), 120.0/260.0; got != want {
		t.Fatalf("BusyFrac = %v, want %v", got, want)
	}
	if got, want := d.WaitFrac(), 1-120.0/260.0; got != want {
		t.Fatalf("WaitFrac = %v, want %v", got, want)
	}
	if got, want := d.ExchangeFrac(), 30.0/130.0; got != want {
		t.Fatalf("ExchangeFrac = %v, want %v", got, want)
	}
}

// TestStopwatch measures through an injected clock.
func TestStopwatch(t *testing.T) {
	clk := NewManualClock(0, 250)
	sw := StartStopwatch(clk) // reads 0
	if el := sw.Elapsed(); el != 250 {
		t.Fatalf("elapsed = %v, want 250ns", el)
	}
	var zero Stopwatch
	if zero.Elapsed() != 0 {
		t.Fatal("zero stopwatch should read 0")
	}
}

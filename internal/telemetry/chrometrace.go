package telemetry

import (
	"bufio"
	"fmt"
	"io"
)

// WriteTrace serializes spans as Chrome trace-event JSON — loadable in
// Perfetto (ui.perfetto.dev) and chrome://tracing. Rows (tids) are
// tid 0 = coordinator, tid i+1 = shard i; every span becomes one
// complete ("ph":"X") event with microsecond timestamps at nanosecond
// resolution. Field order and number formatting are fixed, so the
// output is deterministic given deterministic spans (ManualClock).
func WriteTrace(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	spans = append([]Span(nil), spans...)
	// Spans() already sorts, but callers may pass raw slices.
	sortSpans(spans)

	maxShard := -1
	for _, s := range spans {
		if s.Shard > maxShard {
			maxShard = s.Shard
		}
	}

	bw.WriteString("{\"traceEvents\":[\n")
	first := true
	emit := func(format string, args ...any) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		fmt.Fprintf(bw, format, args...)
	}
	emit(`{"name":"process_name","ph":"M","pid":0,"args":{"name":"ampsim parallel engine"}}`)
	emit(`{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"coordinator"}}`)
	for i := 0; i <= maxShard; i++ {
		emit(`{"name":"thread_name","ph":"M","pid":0,"tid":%d,"args":{"name":"shard %d"}}`, i+1, i)
	}
	for _, s := range spans {
		tid := s.Shard + 1
		dur := s.Dur()
		if dur < 0 {
			dur = 0
		}
		emit(`{"name":"%s","cat":"engine","ph":"X","ts":%s,"dur":%s,"pid":0,"tid":%d,"args":{"vt_ns":%d}}`,
			s.Kind, usec(s.Start), usec(dur), tid, s.VT)
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// usec renders nanoseconds as a microsecond decimal with full
// nanosecond precision (Chrome trace ts/dur are in microseconds).
func usec(ns int64) string {
	neg := ""
	if ns < 0 {
		neg, ns = "-", -ns
	}
	return fmt.Sprintf("%s%d.%03d", neg, ns/1000, ns%1000)
}

func sortSpans(spans []Span) {
	// Insertion-sort-free: reuse the Recorder ordering.
	lessSpan := func(a, b Span) bool {
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Shard != b.Shard {
			return a.Shard < b.Shard
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Seq < b.Seq
	}
	// Small n in practice; simple stable sort.
	for i := 1; i < len(spans); i++ {
		for j := i; j > 0 && lessSpan(spans[j], spans[j-1]); j-- {
			spans[j], spans[j-1] = spans[j-1], spans[j]
		}
	}
}

// Decomposition aggregates a span timeline into the quantities the
// speedup study reads: where did the wall time go?
//
// The engine's wall per window is window + exchange + action
// (coordinator-sequential phases); shard capacity over a run is
// Shards × that total. RunNS is the time shards actually computed, so
//
//	BusyFrac = RunNS / (Shards × (WindowNS+ExchangeNS+ActionNS))
//	WaitFrac = 1 − BusyFrac
//
// WaitFrac lumps barrier wait (shards idle while a straggler runs)
// with the coordinator-serial exchange/action phases — both are time a
// shard core spent not simulating. ExchangeFrac separates the
// coordinator-serial share so barrier wait proper is
// WaitFrac − serial share.
type Decomposition struct {
	Shards     int
	Windows    int
	WindowNS   int64
	RunNS      int64
	ExchangeNS int64
	ActionNS   int64
}

// Decompose aggregates spans (from Recorder.Spans).
func Decompose(spans []Span) Decomposition {
	var d Decomposition
	for _, s := range spans {
		if s.Shard >= d.Shards {
			d.Shards = s.Shard + 1
		}
		switch s.Kind {
		case SpanWindow:
			d.Windows++
			d.WindowNS += s.Dur()
		case SpanRun:
			d.RunNS += s.Dur()
		case SpanExchange:
			d.ExchangeNS += s.Dur()
		case SpanAction:
			d.ActionNS += s.Dur()
		}
	}
	return d
}

// engineNS is the coordinator-sequential wall total.
func (d Decomposition) engineNS() int64 { return d.WindowNS + d.ExchangeNS + d.ActionNS }

// BusyFrac is the fraction of shard capacity spent simulating.
func (d Decomposition) BusyFrac() float64 {
	total := d.engineNS() * int64(d.Shards)
	if total <= 0 {
		return 0
	}
	f := float64(d.RunNS) / float64(total)
	if f > 1 {
		f = 1
	}
	return f
}

// WaitFrac is the fraction of shard capacity spent idle: barrier wait
// plus the coordinator-serial exchange/action phases.
func (d Decomposition) WaitFrac() float64 {
	if d.engineNS() <= 0 {
		return 0
	}
	return 1 - d.BusyFrac()
}

// ExchangeFrac is the coordinator-serial share of engine wall time
// (exchange + action phases).
func (d Decomposition) ExchangeFrac() float64 {
	total := d.engineNS()
	if total <= 0 {
		return 0
	}
	return float64(d.ExchangeNS+d.ActionNS) / float64(total)
}

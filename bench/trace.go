package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"

	"repro/internal/telemetry"
)

// span is one benchmark-side interval: a scenario iteration or one of
// its phases, recorded around the calls into core. Instants (plan
// events) have end == start. Spans of one iteration share iter.
type span struct {
	id, parent int // parent 0 = root
	iter       int
	name       string
	start, end int64 // wall ns
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, which is how untraced and set-up runs use the same
// hooks.
type tracer struct {
	spans []span
	// pending holds the current iteration's plan-event instants until
	// phases learns the id of the core.run span they belong under.
	pending []span
}

func (t *tracer) instant(iter int, name string, at int64) {
	if t == nil {
		return
	}
	t.pending = append(t.pending, span{iter: iter, name: name, start: at, end: at})
}

// phases records the iteration span and its four children from the
// boundaries runCounted stamped, then files the pending instants.
func (t *tracer) phases(iter int, c *counts) {
	if t == nil {
		return
	}
	add := func(parent int, name string, start, end int64) int {
		id := len(t.spans) + 1
		t.spans = append(t.spans, span{id: id, parent: parent, iter: iter, name: name, start: start, end: end})
		return id
	}
	root := add(0, "iteration", c.tStart, c.tReport)
	add(root, "core.new", c.tStart, c.tNew)
	add(root, "core.boot", c.tNew, c.tBoot)
	run := add(root, "core.run", c.tBoot, c.tRun)
	add(root, "core.report", c.tRun, c.tReport)
	for _, in := range t.pending {
		add(run, in.name, in.start, in.end)
	}
	t.pending = t.pending[:0]
}

// writeFile writes the spans as Chrome trace-event JSON (loadable in
// Perfetto and chrome://tracing): benchmark spans on tid 0 with their
// id, parent and iteration in args, and the parallel engine's recorder
// spans of the last traced iteration merged in on the coordinator and
// per-shard rows below.
func (t *tracer) writeFile(path string, engine []telemetry.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	usec := func(ns int64) string { return strconv.FormatFloat(float64(ns)/1e3, 'f', 3, 64) }
	bw.WriteString("{\"traceEvents\":[\n")
	fmt.Fprintf(bw, `{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"bench"}}`)
	for _, s := range t.spans {
		bw.WriteString(",\n")
		args := fmt.Sprintf(`{"id":%d,"parent":%d,"iter":%d}`, s.id, s.parent, s.iter)
		if s.end == s.start {
			fmt.Fprintf(bw, `{"name":%q,"cat":"plan","ph":"i","s":"t","ts":%s,"pid":0,"tid":0,"args":%s}`,
				s.name, usec(s.start), args)
			continue
		}
		fmt.Fprintf(bw, `{"name":%q,"cat":"bench","ph":"X","ts":%s,"dur":%s,"pid":0,"tid":0,"args":%s}`,
			s.name, usec(s.start), usec(s.end-s.start), args)
	}
	for _, s := range engine {
		// Recorder rows: shard -1 is the coordinator.
		fmt.Fprintf(bw, ",\n"+`{"name":%q,"cat":"engine","ph":"X","ts":%s,"dur":%s,"pid":0,"tid":%d,"args":{"vt_ns":%d}}`,
			s.Kind.String(), usec(s.Start), usec(max(s.Dur(), 0)), s.Shard+2, s.VT)
	}
	bw.WriteString("\n]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

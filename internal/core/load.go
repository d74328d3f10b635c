package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/ampip"
	"repro/internal/micropacket"
	"repro/internal/netcache"
	"repro/internal/sim"
)

// Load is a composable workload generator: a traffic pattern that can
// be started on any cluster and measured uniformly. The implementations
// — PubSubLoad, CacheChurn, CollectiveLoad, FileStream — replace the
// publish tickers, write loops and collective drivers that every
// consumer used to hand-roll. Start one with Cluster.StartLoad or list
// it in Scenario.Loads.
type Load interface {
	// kindName returns the report kind tag and instance name.
	kindName() (kind, name string)
	// check validates the load's node ids against the cluster, so a
	// misconfigured load fails up front instead of panicking
	// mid-simulation (mirroring Plan.Validate).
	check(c *Cluster) error
	// begin installs the load and starts generating.
	begin(c *Cluster, a *ActiveLoad)
}

// checkLoadNode validates one node id of a load.
func checkLoadNode(c *Cluster, kind, role string, id int) error {
	if id < 0 || id >= len(c.Nodes) {
		return fmt.Errorf("core: %s load: %s node %d out of range [0,%d)", kind, role, id, len(c.Nodes))
	}
	return nil
}

// negative refuses one size, count or interval of a load: zero selects
// the default, a negative value is not a default in disguise (the rule
// Options.fill keeps). field is "<Type>.<Field>".
func negative[T int | sim.Time](kind, field string, v T) error {
	if v < 0 {
		return fmt.Errorf("core: %s load: negative %s %v", kind, field, v)
	}
	return nil
}

// NodeCount is a per-subscriber delivery line in a LoadReport.
type NodeCount struct {
	Node     int    `json:"node"`
	Received uint64 `json:"received"`
	Gaps     uint64 `json:"gaps"`
}

// LoadReport is the machine-readable outcome of one load. Which fields
// are populated depends on the load kind; zero fields are omitted from
// JSON.
type LoadReport struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Sent counts generated units (messages, cache writes, files).
	Sent uint64 `json:"sent,omitempty"`
	// Delivered counts received units, summed over subscribers.
	Delivered uint64 `json:"delivered,omitempty"`
	// Bytes counts payload bytes generated.
	Bytes uint64 `json:"bytes,omitempty"`
	// Errors counts generation-side failures (refused sends).
	Errors uint64 `json:"errors,omitempty"`
	// Gaps counts sequence discontinuities observed by subscribers.
	Gaps uint64 `json:"gaps,omitempty"`
	// MaxGapNS is the worst inter-arrival gap seen by any subscriber —
	// the service-outage measure of the paper's availability claims.
	MaxGapNS int64 `json:"max_gap_ns,omitempty"`
	// MaxLatencyNS is the worst publish-to-deliver (or file transfer)
	// latency.
	MaxLatencyNS int64 `json:"max_latency_ns,omitempty"`
	// Iters counts completed collective iterations.
	Iters uint64 `json:"iters,omitempty"`
	// Files counts completed file transfers; Corrupt the CRC failures.
	Files   uint64 `json:"files,omitempty"`
	Corrupt uint64 `json:"corrupt,omitempty"`
	// ExactReplicas/StaleReplicas summarize the end-of-run cache check
	// (CacheChurn): replicas matching the last committed write vs not.
	ExactReplicas int `json:"exact_replicas,omitempty"`
	StaleReplicas int `json:"stale_replicas,omitempty"`
	// PerNode breaks deliveries down by subscriber.
	PerNode []NodeCount `json:"per_node,omitempty"`
}

// ActiveLoad is a started load: poll Done, stop it, read its report.
type ActiveLoad struct {
	rep       LoadReport
	halted    bool
	done      bool
	finalized bool
	finalize  func()
	// ranks are a collective's; once halted, each runs iterations up
	// to last.
	ranks []collectiveRank
	last  int
}

// StartLoad installs l on the cluster and starts it at the current
// virtual time. It panics on a load addressing nonexistent nodes — a
// programming error, reported before the simulation runs (Scenario.Run
// surfaces the same condition as an error instead).
func (c *Cluster) StartLoad(l Load) *ActiveLoad {
	if err := l.check(c); err != nil {
		panic(err)
	}
	return c.startLoad(l)
}

// startLoad starts an already-validated load.
func (c *Cluster) startLoad(l Load) *ActiveLoad {
	a := &ActiveLoad{}
	a.rep.Kind, a.rep.Name = l.kindName()
	if a.rep.Name == "" {
		a.rep.Name = a.rep.Kind
	}
	l.begin(c, a)
	return a
}

// Done reports whether a finite load has finished generating (and, for
// FileStream and CollectiveLoad, completing) its work. Unbounded loads
// are done only after Quiesce/Stop.
func (a *ActiveLoad) Done() bool { return a.done }

// Quiesce stops generating new traffic; in-flight traffic still drains
// and is counted. Use it before a settle window so final deliveries
// land in the report. It runs in driver context, between runs: a
// collective's ranks each finish the highest iteration any of them has
// in flight, so every op some rank issued completes.
func (a *ActiveLoad) Quiesce() {
	if a.halted {
		return
	}
	a.halted = true
	a.done = true
	for _, r := range a.ranks {
		a.last = max(a.last, r.iter)
	}
}

// Report finalizes (first call) and returns the load's report.
// End-of-run checks — e.g. CacheChurn's replica comparison — run at
// the virtual time of the first Report call.
func (a *ActiveLoad) Report() *LoadReport {
	if !a.finalized {
		a.finalized = true
		if a.finalize != nil {
			a.finalize()
		}
	}
	return &a.rep
}

// Stop quiesces the load and finalizes its report.
func (a *ActiveLoad) Stop() *LoadReport {
	a.Quiesce()
	return a.Report()
}

func (a *ActiveLoad) genDone() { a.done = true }

// --- PubSubLoad ---

// pubSubHeader prefixes every generated message: an 8-byte sequence
// number plus the 8-byte send time, so gap and latency accounting is
// built into the load rather than re-implemented per consumer.
const pubSubHeader = 16

// PubSubLoad publishes a paced message stream on a topic and measures
// delivery at every subscriber: counts, sequence gaps, worst
// inter-arrival gap (the outage measure) and worst publish-to-deliver
// latency.
type PubSubLoad struct {
	// Name labels the report (default "pubsub").
	Name string
	// Publisher is the publishing node; Topic the pub/sub topic.
	Publisher int
	Topic     uint8
	// Subscribers lists the consuming nodes; nil means every node
	// except the publisher.
	Subscribers []int
	// Every is the publish interval (default 100 µs). With Poisson it
	// is the mean of the exponential inter-arrival distribution.
	Every sim.Time
	// Poisson switches the generator from a fixed cadence to a Poisson
	// arrival process: inter-arrival times are drawn from a seeded
	// exponential distribution, giving deterministic but bursty,
	// non-uniform traffic. The stream is derived from the cluster seed
	// and the load's publisher/topic, so it is identical run to run —
	// and identical at every shard count, which is why it does not
	// touch the kernel RNG.
	Poisson bool
	// Count bounds the stream; 0 means publish until quiesced.
	Count int
	// Payload is the number of application bytes beyond the 16-byte
	// seq+timestamp header.
	Payload int
	// Fill, if set, fills the application payload for each message.
	Fill func(seq uint64, payload []byte)
	// OnDeliver, if set, observes every delivery (after accounting).
	OnDeliver func(node int, seq uint64, payload []byte)
}

func (l *PubSubLoad) kindName() (string, string) { return "pubsub", l.Name }

func (l *PubSubLoad) check(c *Cluster) error {
	if err := cmp.Or(negative("pubsub", "PubSubLoad.Payload", l.Payload),
		negative("pubsub", "PubSubLoad.Every", l.Every),
		negative("pubsub", "PubSubLoad.Count", l.Count)); err != nil {
		return err
	}
	if err := checkLoadNode(c, "pubsub", "publisher", l.Publisher); err != nil {
		return err
	}
	for _, s := range l.Subscribers {
		if err := checkLoadNode(c, "pubsub", "subscriber", s); err != nil {
			return err
		}
	}
	return nil
}

func (l *PubSubLoad) begin(c *Cluster, a *ActiveLoad) {
	every := l.Every
	if every <= 0 {
		every = 100 * sim.Microsecond
	}
	subs := l.Subscribers
	if subs == nil {
		for i := range c.Nodes {
			if i != l.Publisher {
				subs = append(subs, i)
			}
		}
	}
	type subState struct {
		node                 int
		received, gaps       uint64
		lastSeq              uint64
		seen                 bool
		lastRx, maxGap, maxL sim.Time
	}
	states := make([]*subState, len(subs))
	for si, node := range subs {
		st := &subState{node: node}
		states[si] = st
		// The delivery callback runs on the subscriber's kernel (its
		// shard) and touches only this subscriber's state, so
		// accounting is race-free and identical at every shard count.
		subK := c.Nodes[node].K
		c.Services[node].Sub.Subscribe(l.Topic, func(_ micropacket.NodeID, data []byte) {
			if len(data) < pubSubHeader {
				return
			}
			seq := binary.LittleEndian.Uint64(data)
			sentAt := sim.Time(binary.LittleEndian.Uint64(data[8:]))
			st.received++
			// Sequence numbers start at 1, so losses before the first
			// delivery count as a gap too.
			if seq != st.lastSeq+1 && (st.seen || seq != 1) {
				st.gaps++
			}
			st.seen = true
			st.lastSeq = seq
			now := subK.Now()
			if st.lastRx != 0 && now-st.lastRx > st.maxGap {
				st.maxGap = now - st.lastRx
			}
			st.lastRx = now
			if lat := now - sentAt; lat > st.maxL {
				st.maxL = lat
			}
			if l.OnDeliver != nil {
				l.OnDeliver(st.node, seq, data[pubSubHeader:])
			}
		})
	}
	seq := uint64(0)
	pubK := c.Nodes[l.Publisher].K
	var arrivals *sim.RNG
	if l.Poisson {
		// A private stream derived from the run seed and the load's
		// identity: deterministic, and independent of the engine and
		// of any other load's draws.
		arrivals = sim.NewRNG(c.Opts.Seed ^ 0x9e3779b97f4a7c15*uint64(l.Publisher+1) ^ uint64(l.Topic)<<56)
	}
	// One buffer for the whole stream: Publish has copied what it keeps
	// by the time it returns, and subscribers only borrow.
	buf := make([]byte, pubSubHeader+l.Payload)
	gen := func() bool {
		if a.halted {
			return false
		}
		if c.Nodes[l.Publisher].Online() {
			seq++
			binary.LittleEndian.PutUint64(buf, seq)
			binary.LittleEndian.PutUint64(buf[8:], uint64(pubK.Now()))
			if l.Fill != nil {
				clear(buf[pubSubHeader:])
				l.Fill(seq, buf[pubSubHeader:])
			}
			c.Services[l.Publisher].Sub.Publish(l.Topic, buf)
			a.rep.Sent++
			a.rep.Bytes += uint64(len(buf))
		}
		if l.Count > 0 && seq >= uint64(l.Count) {
			a.genDone()
			return false
		}
		return true
	}
	if l.Poisson {
		var tick *sim.Timer
		tick = pubK.After(arrivals.Exp(every), func() {
			if gen() {
				tick.Reset(arrivals.Exp(every))
			}
		})
	} else {
		everyOn(pubK, every, gen)
	}
	a.finalize = func() {
		for _, st := range states {
			a.rep.Delivered += st.received
			a.rep.Gaps += st.gaps
			if int64(st.maxGap) > a.rep.MaxGapNS {
				a.rep.MaxGapNS = int64(st.maxGap)
			}
			if int64(st.maxL) > a.rep.MaxLatencyNS {
				a.rep.MaxLatencyNS = int64(st.maxL)
			}
			a.rep.PerNode = append(a.rep.PerNode, NodeCount{Node: st.node, Received: st.received, Gaps: st.gaps})
		}
	}
}

// --- CacheChurn ---

// CacheChurn writes a replicated cache record at a steady rate and, at
// report time, audits every other online node's replica against the
// last committed write — the "no loss of data" check in load form.
type CacheChurn struct {
	// Name labels the report (default "cache-churn").
	Name string
	// Writer is the writing node.
	Writer int
	// Record is the cache record to churn (Region must exist).
	Record netcache.Record
	// Every is the write interval (default 50 µs).
	Every sim.Time
	// Count bounds the writes; 0 means write until quiesced.
	Count int
	// Fill, if set, fills each write's buffer; the default stamps the
	// little-endian sequence number into the buffer's first bytes.
	Fill func(seq uint64, buf []byte)
}

func (l *CacheChurn) kindName() (string, string) { return "cache-churn", l.Name }

func (l *CacheChurn) check(c *Cluster) error {
	return cmp.Or(negative("cache-churn", "CacheChurn.Every", l.Every),
		negative("cache-churn", "CacheChurn.Count", l.Count),
		checkLoadNode(c, "cache-churn", "writer", l.Writer))
}

func (l *CacheChurn) begin(c *Cluster, a *ActiveLoad) {
	every := l.Every
	if every <= 0 {
		every = 50 * sim.Microsecond
	}
	rec := l.Record
	// buf is every write's buffer (WriteRecord copies it out); last is
	// the copy of the latest committed write the audit compares with.
	buf := make([]byte, rec.Size)
	var last []byte
	seq := uint64(0)
	everyOn(c.Nodes[l.Writer].K, every, func() bool {
		if a.halted {
			return false
		}
		if c.Nodes[l.Writer].Online() {
			seq++
			if l.Fill != nil {
				clear(buf)
				l.Fill(seq, buf)
			} else {
				var le [8]byte
				binary.LittleEndian.PutUint64(le[:], seq)
				copy(buf, le[:])
			}
			if err := c.Nodes[l.Writer].CacheW.WriteRecord(rec, buf); err != nil {
				a.rep.Errors++
			} else {
				a.rep.Sent++
				a.rep.Bytes += uint64(len(buf))
				if last == nil {
					last = make([]byte, len(buf))
				}
				copy(last, buf)
			}
		}
		if l.Count > 0 && seq >= uint64(l.Count) {
			a.genDone()
			return false
		}
		return true
	})
	a.finalize = func() {
		if last == nil {
			return
		}
		for i, nd := range c.Nodes {
			if i == l.Writer || !nd.Online() {
				continue
			}
			if d, ok := nd.Cache.TryRead(rec); ok && bytes.Equal(d, last) {
				a.rep.ExactReplicas++
			} else {
				a.rep.StaleReplicas++
			}
		}
	}
}

// --- CollectiveLoad ---

// CollectiveLoad runs the inner loop of a data-parallel job over the
// cluster's AmpIP stacks: each iteration all-reduces a global sum and
// barriers to stay in step, exactly the slide-12 MPI-over-AmpNet story.
// Each rank loops on its own node's kernel.
type CollectiveLoad struct {
	// Name labels the report (default "collective").
	Name string
	// Ranks lists the participating nodes; empty means all nodes.
	Ranks []int
	// Port is the collective port (default 7100).
	Port uint16
	// Iters bounds the job; 0 means iterate until quiesced.
	Iters int
	// OnIter, if set, observes each completed iteration's global sum.
	OnIter func(iter int, sum uint64)
}

func (l *CollectiveLoad) kindName() (string, string) { return "collective", l.Name }

func (l *CollectiveLoad) check(c *Cluster) error {
	if err := negative("collective", "CollectiveLoad.Iters", l.Iters); err != nil {
		return err
	}
	for _, r := range l.Ranks {
		if err := checkLoadNode(c, "collective", "rank", r); err != nil {
			return err
		}
	}
	return nil
}

func (l *CollectiveLoad) begin(c *Cluster, a *ActiveLoad) {
	ranks := l.Ranks
	if len(ranks) == 0 {
		ranks = make([]int, len(c.Nodes))
		for i := range ranks {
			ranks[i] = i
		}
	}
	port := cmp.Or(l.Port, 7100)
	a.ranks = make([]collectiveRank, len(ranks))
	for i, node := range ranks {
		// Each rank's local state evolves as a function of the global
		// sum, so divergence between ranks would be visible immediately.
		r := &a.ranks[i]
		*r = collectiveRank{l: l, a: a, comm: ampip.NewComm(c.Stacks[node], ranks, port), local: uint64(i + 1)}
		r.reduced, r.released = r.reduce, r.release
		c.Nodes[node].K.After(0, r.iterate)
	}
}

// collectiveRank is one rank's loop, stepped on its own node's kernel:
// all-reduce, barrier, next iteration.
type collectiveRank struct {
	l          *CollectiveLoad
	a          *ActiveLoad
	comm       *ampip.Comm
	local, sum uint64
	iter       int
	reduced    func(uint64) // reduce, bound once
	released   func()       // release, bound once
}

// iterate starts iteration r.iter by all-reducing the local value.
func (r *collectiveRank) iterate() {
	if r.a.halted && r.iter > r.a.last || r.l.Iters > 0 && r.iter >= r.l.Iters {
		if r.comm.Rank() == 0 {
			r.a.genDone()
		}
		return
	}
	r.comm.AllReduceSum(r.local, r.reduced)
}

// reduce takes the iteration's global sum and enters its barrier.
func (r *collectiveRank) reduce(total uint64) {
	r.sum = total
	r.local += total % 97
	r.comm.Barrier(r.released)
}

// release ends the iteration on this rank and starts the next; rank 0
// counts it.
func (r *collectiveRank) release() {
	if r.comm.Rank() == 0 {
		r.a.rep.Iters++
		if r.l.OnIter != nil {
			r.l.OnIter(r.iter, r.sum)
		}
	}
	r.iter++
	r.iterate()
}

// --- FileStream ---

// FileStream pushes one or more large files over an AmpFiles DMA
// channel and reports completion, integrity and transfer time — the
// slide-7 bulk-vs-messages workload.
type FileStream struct {
	// Name labels the report (default "filestream").
	Name string
	// From/To are the sending and receiving nodes.
	From, To int
	// FileName names the transfer (default "filestream.bin"); repeated
	// files get a ".N" suffix. Concurrent FileStreams between the same
	// node pair must use distinct names — same-name transfers are
	// indistinguishable on the wire.
	FileName string
	// Size is the file size in bytes (default 1 MiB).
	Size int
	// Repeat is the number of files to send back to back (default 1).
	Repeat int
	// Gap is the pause between one file's last segment leaving the
	// sender's DMA engine and the next file's send.
	Gap sim.Time
	// OnFile, if set, observes each completed transfer.
	OnFile func(i int, ok bool, took sim.Time)
}

func (l *FileStream) kindName() (string, string) { return "filestream", l.Name }

func (l *FileStream) check(c *Cluster) error {
	if err := cmp.Or(negative("filestream", "FileStream.Size", l.Size),
		negative("filestream", "FileStream.Repeat", l.Repeat),
		negative("filestream", "FileStream.Gap", l.Gap)); err != nil {
		return err
	}
	return cmp.Or(checkLoadNode(c, "filestream", "sender", l.From),
		checkLoadNode(c, "filestream", "receiver", l.To))
}

func (l *FileStream) begin(c *Cluster, a *ActiveLoad) {
	size, repeat := cmp.Or(l.Size, 1<<20), cmp.Or(l.Repeat, 1) // check refused negatives
	base := cmp.Or(l.FileName, "filestream.bin")
	// Send lends the file to the DMA engine until the transfer's last
	// segment is queued; nothing writes to it after this loop, so every
	// send lends the same bytes.
	file := make([]byte, size)
	for i := range file {
		file[i] = byte(uint32(i) * 2654435761)
	}
	names := []string{base}
	if repeat > 1 {
		names = make([]string, repeat)
		for i := range names {
			names[i] = fmt.Sprintf("%s.%d", base, i)
		}
	}
	// starts[i] is when the sender sent file i. The receiver reads it
	// only once file i has crossed the fiber, so on another shard a
	// window barrier lies between the write and the read.
	starts := make([]sim.Time, repeat)

	// The sender steps on From's kernel: a file, then the next one Gap
	// after the last segment of this one is queued.
	tx := c.Nodes[l.From].K
	sent := 0
	var send func()
	queued := func() {
		if sent < repeat {
			tx.After(l.Gap, send)
		}
	}
	send = func() {
		if a.halted {
			return
		}
		if !c.Nodes[l.From].Online() {
			a.rep.Errors++
			a.genDone()
			return
		}
		i := sent
		sent++ // before Send, which may run queued at once
		starts[i] = tx.Now()
		if err := c.Services[l.From].Files.Send(micropacket.NodeID(l.To), names[i], file, queued); err != nil {
			a.rep.Errors++
			a.genDone()
			return
		}
		a.rep.Sent++
	}
	tx.After(0, send)

	// The receiver steps on To's kernel and counts each of this load's
	// files that arrives, whole or not, in order: a file that never
	// arrives is skipped, and once the last one has arrived the load
	// matches nothing, so it never swallows a later same-name stream.
	rx := c.Nodes[l.To].K
	next := 0
	prev := c.Services[l.To].Files.OnFile
	c.Services[l.To].Files.OnFile = func(src micropacket.NodeID, name string, data []byte, ok bool) {
		if i := next + slices.Index(names[next:], name); int(src) == l.From && i >= next {
			next = i + 1
			took := rx.Now() - starts[i]
			a.rep.Files++
			if !ok {
				a.rep.Corrupt++
			}
			a.rep.Bytes += uint64(len(data))
			a.rep.MaxLatencyNS = max(a.rep.MaxLatencyNS, int64(took))
			if l.OnFile != nil {
				l.OnFile(i, ok, took)
			}
			if next == repeat {
				a.genDone()
			}
		}
		if prev != nil {
			prev(src, name, data, ok)
		}
	}
}

package experiments

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/netcache"
	"repro/internal/sim"
)

// E5Seqlock reproduces the slide-9 Lamport-counter protocol: a writer
// updates a replicated record at increasing rates while a reader on
// another node polls its local replica. Readers must never observe a
// torn value; the retry fraction grows with the write rate — the cost
// profile of the "if they agree read, else wait and go to Start" rule.
func E5Seqlock(p Params) *Table {
	p = p.Merged(Params{Nodes: 3, Switches: 2})
	t := &Table{
		ID:     "E5",
		Title:  "network-cache consistency via Lamport counters (paper slide 9)",
		Header: []string{"write interval", "reads", "clean", "retries", "retry %", "torn values"},
	}
	for _, wi := range []sim.Time{1 * sim.Millisecond, 200 * sim.Microsecond, 50 * sim.Microsecond, 10 * sim.Microsecond} {
		c := core.New(core.Options{Nodes: p.Nodes, Switches: p.Switches, Seed: p.seed(), Regions: map[uint8]int{1: 4096}})
		if err := c.Boot(0); err != nil {
			t.Note("boot failed: %v", err)
			return t
		}
		rec := netcache.Record{Region: 1, Off: 0, Size: 64}
		writer := c.Node(0).CacheW()
		reader := c.Node(p.Nodes - 1).Cache() // farthest replica from the writer

		var torn, clean, retries int
		seq := byte(0)
		uniform := func(d []byte) bool {
			for _, b := range d {
				if b != d[0] {
					return false
				}
			}
			return true
		}
		stop := c.Now() + 20*sim.Millisecond
		wk, rk := c.Nodes[0].K, c.Nodes[p.Nodes-1].K
		_ = c.Every(0, wi, func() bool {
			seq++
			buf := make([]byte, 64)
			for i := range buf {
				buf[i] = seq
			}
			writer.WriteRecord(rec, buf)
			return wk.Now() < stop
		})
		_ = c.Every(p.Nodes-1, 5*sim.Microsecond, func() bool {
			if d, ok := reader.TryRead(rec); ok {
				clean++
				if !uniform(d) {
					torn++
				}
			} else {
				retries++
			}
			return rk.Now() < stop
		})
		if failed(t, c.Run(25*sim.Millisecond)) {
			continue
		}
		total := clean + retries
		t.Add(wi.String(), fmt.Sprint(total), fmt.Sprint(clean), fmt.Sprint(retries),
			fmt.Sprintf("%.2f", 100*float64(retries)/float64(total)), fmt.Sprint(torn))
	}
	t.Note("torn values must be 0 at every write rate — the protocol's invariant")
	return t
}

// E6Semaphores reproduces slide 10: write conflicts resolved with
// AmpNet locking primitives. N nodes increment an unprotected shared
// record under a network semaphore; the final count must be exact, and
// the table reports lock acquisition latency.
func E6Semaphores(p Params, opsPerNode int) *Table {
	p = p.Merged(Params{Nodes: 5, Switches: 2})
	nodes := p.Nodes
	t := &Table{
		ID:     "E6",
		Title:  "network semaphores serialize cache write conflicts (paper slide 10)",
		Header: []string{"nodes", "ops/node", "final counter", "expected", "exact", "lock µs p50", "lock µs p99"},
	}
	c := core.New(core.Options{Nodes: nodes, Switches: p.Switches, Seed: p.seed(), Regions: map[uint8]int{1: 4096}})
	if err := c.Boot(0); err != nil {
		t.Note("boot failed: %v", err)
		return t
	}
	rec := netcache.Record{Region: 1, Off: 256, Size: 8}
	var lat []float64 // lock acquisition latencies, µs

	shared := 0 // host-side shared value, protected only by the lock
	var launch func(h core.Handle, left int)
	launch = func(h core.Handle, left int) {
		if left == 0 {
			return
		}
		k := h.DK().K
		start := k.Now()
		h.Sem().Lock(42, func() {
			lat = append(lat, float64(k.Now()-start)/1000)
			v := shared
			k.After(2*sim.Microsecond, func() {
				shared = v + 1
				var buf [8]byte
				buf[0] = byte(shared)
				h.CacheW().WriteRecord(rec, buf[:])
				h.Sem().Unlock(42)
				launch(h, left-1)
			})
		})
	}
	for i := 0; i < nodes; i++ {
		h := c.Node(i)
		h.DK().K.After(0, func() { launch(h, opsPerNode) })
	}
	// Contended locking takes a while; wait for the exact count (or
	// give up after a generous window).
	_ = c.WaitUntil(func() bool { return shared == nodes*opsPerNode }, 5*sim.Second)
	if failed(t, c.Err()) {
		return t
	}
	exact := "YES"
	if shared != nodes*opsPerNode {
		exact = "NO (lost updates)"
	}
	slices.Sort(lat)
	t.Add(fmt.Sprint(nodes), fmt.Sprint(opsPerNode), fmt.Sprint(shared),
		fmt.Sprint(nodes*opsPerNode), exact,
		fmt.Sprintf("%.1f", percentile(lat, 50)), fmt.Sprintf("%.1f", percentile(lat, 99)))
	t.Note("the shared value is deliberately unprotected host memory; exactness proves mutual exclusion")
	return t
}

// percentile returns the nearest-rank p-th percentile (0 ≤ p ≤ 100) of
// sorted: the value at rank ⌈p/100·n⌉, clamped to [1, n]; 0 when empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// E6aWriteThrough measures the write-through propagation latency of a
// cache record update to every replica (slide 10: "no caching is
// allowed in local host cache" — every write goes to the wire).
func E6aWriteThrough(p Params) *Table {
	p = p.Merged(Params{Nodes: 6, Switches: 2})
	nodes := p.Nodes
	t := &Table{
		ID:     "E6a",
		Title:  "write-through replication latency (paper slide 10)",
		Header: []string{"nodes", "record B", "replica lat µs (min)", "(max)"},
	}
	for _, size := range []int{16, 64, 256} {
		c := core.New(core.Options{Nodes: nodes, Switches: p.Switches, Seed: p.seed(), Regions: map[uint8]int{1: 8192}})
		if err := c.Boot(0); err != nil {
			t.Note("boot failed: %v", err)
			return t
		}
		rec := netcache.Record{Region: 1, Off: 0, Size: size}
		want := make([]byte, size)
		for i := range want {
			want[i] = 0xAA
		}
		// One concurrent 1 µs poller per replica, so each arrival is
		// stamped independently at poll resolution.
		start := c.Now()
		c.Node(0).CacheW().WriteRecord(rec, want)
		arrive := make([]sim.Time, 0, nodes-1)
		for i := 1; i < nodes; i++ {
			h := c.Node(i)
			_ = c.Every(i, sim.Microsecond, func() bool {
				if d, ok := h.Cache().TryRead(rec); ok && len(d) > 0 && d[0] == 0xAA {
					arrive = append(arrive, h.DK().K.Now()-start)
					return false
				}
				return true
			})
		}
		_ = c.WaitUntil(func() bool { return len(arrive) == nodes-1 }, 10*sim.Millisecond)
		if failed(t, c.Err()) {
			continue
		}
		if len(arrive) != nodes-1 {
			t.Add(fmt.Sprint(nodes), fmt.Sprint(size), "INCOMPLETE", fmt.Sprint(len(arrive)))
			continue
		}
		min, max := arrive[0], arrive[0]
		for _, a := range arrive {
			if a < min {
				min = a
			}
			if a > max {
				max = a
			}
		}
		t.Add(fmt.Sprint(nodes), fmt.Sprint(size),
			fmt.Sprintf("%.1f", min.Micros()), fmt.Sprintf("%.1f", max.Micros()))
	}
	return t
}

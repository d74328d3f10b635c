package netsem

import (
	"testing"

	"repro/internal/alloctest"
	"repro/internal/insertion"
	"repro/internal/micropacket"
	"repro/internal/phys"
	"repro/internal/sim"
)

// rig builds n nodes on a single-switch ring with semaphore services.
// Home is node 0.
type rig struct {
	k    *sim.Kernel
	net  *phys.Net
	svcs []*Service
}

func newRig(n int) *rig {
	k := sim.NewKernel(1)
	net := phys.NewNet(k)
	c := phys.BuildCluster(net, n, 1, 50)
	r := &rig{k: k, net: net}
	home := func() micropacket.NodeID { return 0 }
	for i := 0; i < n; i++ {
		st := insertion.NewStation(k, micropacket.NodeID(i), c.NodePorts[i])
		svc := NewService(k, st, home)
		st.OnDeliver = func(p *micropacket.Packet) {
			if p.Type == micropacket.TypeD64Atomic {
				svc.Handle(p)
			}
		}
		r.svcs = append(r.svcs, svc)
	}
	for i := 0; i < n; i++ {
		c.Switches[0].SetRoute(i, (i+1)%n)
		r.svcs[i].St.SetEgress(0)
	}
	return r
}

func (r *rig) run() { r.k.RunUntil(r.k.Now() + 50*sim.Millisecond) }

func TestLocalOpAtHome(t *testing.T) {
	r := newRig(2)
	var old uint64 = 99
	r.svcs[0].Op(7, micropacket.OpWrite, 42, func(o uint64) { old = o })
	r.run()
	if old != 0 {
		t.Fatalf("old = %d, want 0", old)
	}
	if r.svcs[0].Value(7) != 42 {
		t.Fatalf("home value = %d", r.svcs[0].Value(7))
	}
	// Replica converged at node 1 via broadcast.
	if r.svcs[1].Value(7) != 42 {
		t.Fatalf("replica value = %d", r.svcs[1].Value(7))
	}
}

func TestRemoteOpAndReply(t *testing.T) {
	r := newRig(3)
	var got []uint64
	r.svcs[2].Op(5, micropacket.OpFetchAdd, 10, func(o uint64) { got = append(got, o) })
	r.svcs[2].Op(5, micropacket.OpFetchAdd, 10, func(o uint64) { got = append(got, o) })
	r.run()
	if len(got) != 2 || got[0] != 0 || got[1] != 10 {
		t.Fatalf("old values = %v, want [0 10]", got)
	}
	for i, s := range r.svcs {
		if s.Value(5) != 20 {
			t.Fatalf("node %d replica = %d, want 20", i, s.Value(5))
		}
	}
}

func TestTestAndSetSemantics(t *testing.T) {
	r := newRig(2)
	var olds []uint64
	r.svcs[1].Op(3, micropacket.OpTestAndSet, 1, func(o uint64) { olds = append(olds, o) })
	r.svcs[1].Op(3, micropacket.OpTestAndSet, 1, func(o uint64) { olds = append(olds, o) })
	r.run()
	if len(olds) != 2 || olds[0] != 0 || olds[1] != 1 {
		t.Fatalf("TAS olds = %v, want [0 1]", olds)
	}
	if r.svcs[0].Value(3) != 1 {
		t.Fatal("semaphore not set")
	}
}

func TestReadOp(t *testing.T) {
	r := newRig(2)
	r.svcs[0].Op(9, micropacket.OpWrite, 1234, nil)
	var got uint64
	r.svcs[1].Op(9, micropacket.OpRead, 0, func(o uint64) { got = o })
	r.run()
	if got != 1234 {
		t.Fatalf("read = %d", got)
	}
}

// TestMutualExclusion is the slide-10 usage: N nodes increment a shared
// (non-atomic) counter under the network lock; the total must be exact.
func TestMutualExclusion(t *testing.T) {
	const n, per = 5, 20
	r := newRig(n)
	shared := 0  // deliberately plain; protected only by the lock
	holders := 0 // concurrent holders, must never exceed 1
	maxHold := 0
	var doit func(svc *Service, left int)
	doit = func(svc *Service, left int) {
		if left == 0 {
			return
		}
		svc.Lock(100, func() {
			holders++
			if holders > maxHold {
				maxHold = holders
			}
			v := shared
			// Hold the lock across a delay to invite races.
			svc.K.After(3*sim.Microsecond, func() {
				shared = v + 1
				holders--
				svc.Unlock(100)
				doit(svc, left-1)
			})
		})
	}
	for i := 0; i < n; i++ {
		doit(r.svcs[i], per)
	}
	for i := 0; i < 40; i++ { // generous virtual time for contention
		r.run()
	}
	if maxHold != 1 {
		t.Fatalf("lock held by %d nodes at once", maxHold)
	}
	if shared != n*per {
		t.Fatalf("shared = %d, want %d (lost updates)", shared, n*per)
	}
}

func TestBarrier(t *testing.T) {
	const n = 4
	r := newRig(n)
	released := 0
	for i := 0; i < n; i++ {
		r.svcs[i].Barrier(50, n, func() { released++ })
	}
	r.run()
	if released != n {
		t.Fatalf("released = %d, want %d", released, n)
	}
}

func TestBarrierDoesNotReleaseEarly(t *testing.T) {
	const n = 4
	r := newRig(n)
	released := 0
	for i := 0; i < n-1; i++ { // one party missing
		r.svcs[i].Barrier(51, n, func() { released++ })
	}
	r.run()
	if released != 0 {
		t.Fatalf("released = %d with a missing party", released)
	}
	r.svcs[n-1].Barrier(51, n, func() { released++ })
	r.run()
	if released != n {
		t.Fatalf("released = %d after last arrival, want %d", released, n)
	}
}

func TestWatch(t *testing.T) {
	r := newRig(2)
	var seen []uint64
	cancel := r.svcs[1].Watch(8, func(v uint64) { seen = append(seen, v) })
	r.svcs[0].Op(8, micropacket.OpWrite, 5, nil)
	r.run()
	if len(seen) != 1 || seen[0] != 5 {
		t.Fatalf("watch saw %v", seen)
	}
	cancel()
	r.svcs[0].Op(8, micropacket.OpWrite, 6, nil)
	r.run()
	if len(seen) != 1 {
		t.Fatalf("cancelled watcher fired: %v", seen)
	}
}

func TestForwardingFromStaleHome(t *testing.T) {
	r := newRig(3)
	// Node 2 believes node 1 is home; node 1 knows node 0 is.
	r.svcs[2].Home = func() micropacket.NodeID { return 1 }
	var old uint64 = 99
	r.svcs[2].Op(4, micropacket.OpFetchAdd, 7, func(o uint64) { old = o })
	r.run()
	if r.svcs[0].Value(4) != 7 {
		t.Fatalf("home table = %d, want 7 (forwarding failed)", r.svcs[0].Value(4))
	}
	if r.svcs[1].Forwarded != 1 {
		t.Fatalf("forwards = %d", r.svcs[1].Forwarded)
	}
	// The reply comes from the true home; the requester's pending op
	// resolves.
	if old != 0 {
		t.Fatalf("old = %d, want 0", old)
	}
}

func TestRetryAfterLoss(t *testing.T) {
	r := newRig(3)
	r.svcs[1].Timeout = 200 * sim.Microsecond
	// Break the ring silently: clear the crossbar so requests vanish
	// (no loss-of-light, no rostering in this rig).
	var resolved bool
	r.k.After(0, func() {
		// Drop node 1's egress route so its request dies at the switch.
		// (Unrouted frames are discarded.)
	})
	r.svcs[1].Op(6, micropacket.OpFetchAdd, 1, func(o uint64) { resolved = true })
	r.run()
	if !resolved {
		t.Fatal("op did not resolve")
	}
	// Now actually test a retry: temporarily unroute, issue, restore.
	r2 := newRig(3)
	r2.svcs[1].Timeout = 200 * sim.Microsecond
	sw := r2.svcs[1] // node 1's requests go 1→2→0? ring is i→i+1, so 1→2, 2→0.
	_ = sw
	resolved = false
	// Unroute node 2's transit hop so the request to home (node 0) is
	// lost after delivery attempt.
	r2.svcs[2].St.SetEgress(-1)
	r2.svcs[1].Op(6, micropacket.OpFetchAdd, 1, func(o uint64) { resolved = true })
	r2.k.RunUntil(r2.k.Now() + 100*sim.Microsecond) // request lost
	if resolved {
		t.Fatal("resolved with broken ring?")
	}
	r2.svcs[2].St.SetEgress(0) // heal
	r2.run()
	if !resolved {
		t.Fatal("retry did not recover the lost request")
	}
	if r2.svcs[1].Retries == 0 {
		t.Fatal("no retry counted")
	}
}

func TestLateDuplicateReplyIgnored(t *testing.T) {
	r := newRig(2)
	// Deliver a reply with nothing pending: must not panic or corrupt.
	reply := micropacket.NewAtomic(0, 1, 9, micropacket.OpReply, 123)
	r.svcs[1].Handle(reply)
	if r.svcs[1].Value(9) != 0 {
		t.Fatal("stray reply mutated replica")
	}
}

func TestLockUncontendedLatency(t *testing.T) {
	r := newRig(4)
	var acquired sim.Time = -1
	r.svcs[3].Lock(20, func() { acquired = r.k.Now() })
	r.run()
	if acquired < 0 {
		t.Fatal("lock never acquired")
	}
	// Uncontended remote lock is one round trip: tens of microseconds
	// on this 50 m rig, certainly under a millisecond.
	if acquired > sim.Millisecond {
		t.Fatalf("uncontended lock took %v", acquired)
	}
}

// TestAbortForgetsEverything: Abort cancels every queued request
// timeout, lock retry and local reply and drops the watchers, so nothing
// the service had under way runs afterwards; idle, it schedules and
// allocates nothing.
func TestAbortForgetsEverything(t *testing.T) {
	r := newRig(3)
	home, svc := r.svcs[0], r.svcs[1]
	queued := r.k.Pending()
	if a := alloctest.Count(100, svc.Abort); a != 0 || r.k.Pending() != queued {
		t.Fatalf("idle Abort: %d allocations in 100 calls, %d events queued", a, r.k.Pending()-queued)
	}
	home.Lock(4, func() {})
	r.run()
	ran := 0
	// The lock is held, so the attempt comes back refused and a retry
	// waits; the request of the Op dies at node 2 and waits to time out.
	svc.Lock(4, func() { ran++ })
	r.k.RunUntil(r.k.Now() + 50*sim.Microsecond)
	r.svcs[2].St.SetEgress(-1)
	svc.Op(6, micropacket.OpFetchAdd, 1, func(uint64) { ran++ })
	svc.Watch(6, func(uint64) { ran++ })
	r.k.RunUntil(r.k.Now() + 100*sim.Microsecond)
	svc.Abort()
	r.svcs[2].St.SetEgress(0)
	home.Op(6, micropacket.OpWrite, 9, nil)
	home.Unlock(4)
	r.run()
	if ran != 0 || svc.Retries != 0 {
		t.Fatalf("after Abort: %d callbacks ran, %d retries", ran, svc.Retries)
	}
	if svc.Value(6) != 9 {
		t.Fatalf("replica = %d, want 9: Abort keeps the replica fed", svc.Value(6))
	}
}

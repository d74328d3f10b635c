package ampnet_test

import (
	"bytes"
	"testing"

	ampnetpkg "repro"
)

// TestPublicAPIEndToEnd drives the whole public surface: boot, pub/sub,
// cache, semaphores, files, threads, IP, collectives, failover and
// self-healing, through the facade only — node access goes through
// typed handles, faults through installed plans, and settling through
// condition-based waits.
func TestPublicAPIEndToEnd(t *testing.T) {
	c := ampnetpkg.New(ampnetpkg.Options{
		Nodes: 4, Switches: 2,
		Regions: map[uint8]int{1: 8192},
	})
	if err := c.Boot(0); err != nil {
		t.Fatal(err)
	}

	// Pub/sub.
	var got []byte
	c.Node(3).Sub().Subscribe(1, func(_ ampnetpkg.NodeID, data []byte) { got = append([]byte(nil), data...) })
	c.Node(0).Sub().Publish(1, []byte("facade"))
	if err := c.Run(2 * ampnetpkg.Millisecond); err != nil {
		t.Fatal(err)
	}
	if string(got) != "facade" {
		t.Fatalf("pubsub: %q", got)
	}

	// Cache record.
	rec := ampnetpkg.Record{Region: 1, Off: 0, Size: 8}
	if err := c.Node(1).CacheW().WriteRecord(rec, []byte("01234567")); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(2 * ampnetpkg.Millisecond); err != nil {
		t.Fatal(err)
	}
	if d, ok := c.Node(2).Cache().TryRead(rec); !ok || !bytes.Equal(d, []byte("01234567")) {
		t.Fatalf("cache replica: %q ok=%v", d, ok)
	}

	// Double buffer.
	db := ampnetpkg.NewDoubleBuffer(1, 512, 8)
	if err := db.Write(c.Node(0).CacheW(), []byte("checkpnt")); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(2 * ampnetpkg.Millisecond); err != nil {
		t.Fatal(err)
	}
	if d, _, ok := db.Read(c.Node(3).Cache()); !ok || string(d) != "checkpnt" {
		t.Fatalf("double buffer: %q ok=%v", d, ok)
	}

	// Semaphore lock.
	locked := false
	c.Node(2).Sem().Lock(5, func() { locked = true; c.Node(2).Sem().Unlock(5) })
	if err := c.WaitUntil(func() bool { return locked }, 3*ampnetpkg.Millisecond); err != nil {
		t.Fatal("lock never granted")
	}

	// File transfer.
	var fileOK bool
	c.Node(2).Files().OnFile = func(_ ampnetpkg.NodeID, name string, data []byte, ok bool) {
		fileOK = ok && name == "f" && len(data) == 1000
	}
	c.Node(1).Files().Send(2, "f", make([]byte, 1000), nil)
	if err := c.WaitUntil(func() bool { return fileOK }, 5*ampnetpkg.Millisecond); err != nil {
		t.Fatal("file transfer failed")
	}

	// Remote thread.
	c.Node(0).Threads().Register(1, func(a uint32) uint32 { return a + 1 })
	var res uint32
	c.Node(3).Threads().Call(0, 1, 41, func(v uint32, ok bool) {
		if ok {
			res = v
		}
	})
	if err := c.WaitUntil(func() bool { return res == 42 }, 3*ampnetpkg.Millisecond); err != nil {
		t.Fatalf("thread call = %d", res)
	}

	// Collectives.
	comms := make([]*ampnetpkg.Comm, 4)
	for i := range comms {
		comms[i] = ampnetpkg.NewComm(c.Node(i).Stack(), []int{0, 1, 2, 3}, 9000)
	}
	total := uint64(0)
	done := 0
	for i, cm := range comms {
		cm.AllReduceSum(uint64(i), func(v uint64) { total = v; done++ })
	}
	if err := c.WaitUntil(func() bool { return done == 4 }, 5*ampnetpkg.Millisecond); err != nil || total != 6 {
		t.Fatalf("allreduce done=%d total=%d", done, total)
	}

	// Self-heal via an installed plan and a condition-based wait.
	before := c.RingSize()
	if err := c.Install(ampnetpkg.Plan{ampnetpkg.FailSwitch(0, 0)}); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitHealed(10 * ampnetpkg.Millisecond); err != nil {
		t.Fatal(err)
	}
	if c.RingSize() != before {
		t.Fatalf("ring size after heal = %d, want %d", c.RingSize(), before)
	}
	if c.Drops() != 0 {
		t.Fatalf("congestion drops = %d", c.Drops())
	}

	// Failover group.
	cfg := ampnetpkg.GroupConfig{
		ID: 1, Members: []int{0, 1, 2, 3},
		Rank: map[int]int{0: 9, 1: 5, 2: 3, 3: 1}, Period: ampnetpkg.Millisecond,
		State: ampnetpkg.NewDoubleBuffer(1, 1024, 8),
	}
	groups := make([]*ampnetpkg.Group, 4)
	for i := range groups {
		groups[i] = c.Node(i).Manager().AddGroup(cfg)
	}
	if groups[1].Primary() != 0 {
		t.Fatalf("primary = %d", groups[1].Primary())
	}
	took := false
	groups[1].OnTakeover = func([]byte) { took = true }
	if err := c.Install(ampnetpkg.Plan{ampnetpkg.CrashNode(0, 0)}); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitUntil(func() bool { return took }, 20*ampnetpkg.Millisecond); err != nil || groups[2].Primary() != 1 {
		t.Fatalf("failover: took=%v primary=%d", took, groups[2].Primary())
	}
}

// TestScenarioFacade runs a full scenario through the facade and
// regresses the byte-identical-report guarantee at the public surface.
func TestScenarioFacade(t *testing.T) {
	s := ampnetpkg.Scenario{
		Name: "facade",
		Opts: ampnetpkg.Options{Nodes: 6, Switches: 4, Seed: 5},
		Plan: ampnetpkg.Plan{
			ampnetpkg.FailSwitch(5*ampnetpkg.Millisecond, 0),
			ampnetpkg.RestoreSwitch(15*ampnetpkg.Millisecond, 0),
		},
		Loads: []ampnetpkg.Load{
			&ampnetpkg.PubSubLoad{Publisher: 1, Topic: 7, Every: 40 * ampnetpkg.Microsecond},
		},
		For: 25 * ampnetpkg.Millisecond,
	}
	a, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.JSON(), b.JSON()) {
		t.Fatalf("same-seed scenario reports differ:\n%s\n---\n%s", a.JSON(), b.JSON())
	}
	if a.Drops != 0 || !a.Healed || len(a.Events) != 2 {
		t.Fatalf("report not sane: %s", a.JSON())
	}
	if len(a.Loads) != 1 || a.Loads[0].Delivered == 0 {
		t.Fatalf("load moved nothing: %s", a.JSON())
	}
}

func TestAddressHelpers(t *testing.T) {
	if ampnetpkg.NodeToIP(0).String() != "10.77.0.1" {
		t.Fatal("NodeToIP")
	}
	if ampnetpkg.Broadcast != 0xFFFF {
		t.Fatal("Broadcast constant")
	}
	if ampnetpkg.NodeToIP(300).String() != "10.77.1.45" {
		t.Fatal("NodeToIP past the one-byte host space")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, string) {
		c := ampnetpkg.New(ampnetpkg.Options{Nodes: 5, Switches: 4, Seed: 7})
		if err := c.Boot(0); err != nil {
			t.Fatal(err)
		}
		if err := c.Install(ampnetpkg.Plan{ampnetpkg.FailSwitch(0, 1)}); err != nil {
			t.Fatal(err)
		}
		if err := c.Run(10 * ampnetpkg.Millisecond); err != nil {
			t.Fatal(err)
		}
		return c.EventsFired(), c.Roster()
	}
	f1, r1 := run()
	f2, r2 := run()
	if f1 != f2 || r1 != r2 {
		t.Fatalf("nondeterministic: %d/%d events, rosters %q vs %q", f1, f2, r1, r2)
	}
}

func TestNodeToIPRange(t *testing.T) {
	// Out-of-range ids must not alias into valid addresses, and the
	// subnet's broadcast host (10.77.255.255) is never assigned.
	for _, bad := range []int{-1, 65534, 65535, 1 << 20} {
		if a := ampnetpkg.NodeToIP(bad); a != 0 {
			t.Fatalf("NodeToIP(%d) = %v, want zero Addr", bad, a)
		}
	}
	if ampnetpkg.NodeToIP(65533).String() != "10.77.255.254" {
		t.Fatalf("top addressable node: %v", ampnetpkg.NodeToIP(65533))
	}
}

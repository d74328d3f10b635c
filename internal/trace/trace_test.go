package trace

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/frameacct"
	"repro/internal/phys"
	"repro/internal/sim"
)

func TestTimelineCapturesLifecycle(t *testing.T) {
	c := core.New(core.Options{Nodes: 3, Switches: 2})
	tr := Attach(c)
	if err := c.Boot(0); err != nil {
		t.Fatal(err)
	}
	// Boot produces onlines and roster adoptions.
	if len(tr.Filter(KindOnline)) != 3 {
		t.Fatalf("online events = %d", len(tr.Filter(KindOnline)))
	}
	if len(tr.Filter(KindRoster)) == 0 {
		t.Fatal("no roster events at boot")
	}

	c.CrashNode(2)
	if err := c.Run(30 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	downs := tr.Filter(KindPeerDown)
	if len(downs) == 0 {
		t.Fatal("no peer-down events after crash")
	}
	sawDead2 := false
	for _, e := range downs {
		if e.Arg == 2 {
			sawDead2 = true
		}
	}
	if !sawDead2 {
		t.Fatal("crash of node 2 not traced")
	}
	out := tr.String()
	for _, want := range []string{"ONLINE", "ROSTER", "PEER-DOWN"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %s:\n%s", want, out)
		}
	}
}

func TestHookChainingPreserved(t *testing.T) {
	c := core.New(core.Options{Nodes: 2, Switches: 2})
	userOnlineCalled := false
	c.Nodes[0].OnOnline = func() { userOnlineCalled = true }
	Attach(c)
	if err := c.Boot(0); err != nil {
		t.Fatal(err)
	}
	if !userOnlineCalled {
		t.Fatal("tracer broke the user's OnOnline hook")
	}
}

func TestDedupCollapsesAgreement(t *testing.T) {
	events := []Event{
		{Kind: KindRoster, Node: 0, Text: "ring A"},
		{Kind: KindRoster, Node: 1, Text: "ring A"},
		{Kind: KindRoster, Node: 2, Text: "ring A"},
		{Kind: KindPeerDown, Node: 0, Text: "x"},
		{Kind: KindRoster, Node: 0, Text: "ring B"},
	}
	out := Dedup(events)
	if len(out) != 3 {
		t.Fatalf("dedup kept %d events: %+v", len(out), out)
	}
	if !strings.Contains(out[0].Text, "+2 nodes agree") {
		t.Fatalf("agreement count missing: %q", out[0].Text)
	}
}

// TestFrameLossAndTrunkFailTimeline drives a trunked fabric through a
// trunk cut and a node crash and requires both new kinds to appear:
// the cut as a fabric-scoped TRUNK-FAIL, and the frames the faults
// strand as FRAME-LOSS entries whose Arg carries the typed cause.
func TestFrameLossAndTrunkFailTimeline(t *testing.T) {
	topo := phys.DualRing(6, 50)
	c := core.New(core.Options{Fabric: &topo, Seed: 3})
	tr := Attach(c)
	if err := c.Boot(0); err != nil {
		t.Fatal(err)
	}
	// Faults go through an installed plan: OnEvent (and therefore the
	// TRUNK-FAIL timeline) observes plan events, not direct calls.
	if err := c.Install(core.Plan{
		core.FailTrunk(5*sim.Millisecond, 0),
		core.CrashNode(10*sim.Millisecond, 5),
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(30 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}

	cuts := tr.Filter(KindTrunkFail)
	if len(cuts) != 1 || cuts[0].Arg != 0 {
		t.Fatalf("trunk-fail events = %+v, want one for trunk 0", cuts)
	}
	losses := tr.Filter(KindFrameLoss)
	if len(losses) == 0 {
		t.Fatal("no frame-loss events after a trunk cut and a node crash")
	}
	acct := c.FrameAcct()
	for _, e := range losses {
		cause := frameacct.LossCause(e.Arg)
		if cause >= frameacct.NumCauses || acct.Losses[cause] == 0 {
			t.Fatalf("frame-loss event %+v names cause %v with a zero ledger counter", e, cause)
		}
	}
	if !strings.Contains(tr.String(), "TRUNK-FAIL") {
		t.Fatalf("timeline missing TRUNK-FAIL:\n%s", tr.String())
	}
}

// TestObserverChainingPreserved mirrors TestHookChainingPreserved for
// the ledger Observer: a user-installed loss observer must keep firing
// with a tracer attached on top.
func TestObserverChainingPreserved(t *testing.T) {
	topo := phys.DualRing(6, 50)
	c := core.New(core.Options{Fabric: &topo, Seed: 3})
	userLosses := 0
	c.Nets[0].Acct.Observer = func(frameacct.LossCause, int) { userLosses++ }
	tr := Attach(c)
	if err := c.Boot(0); err != nil {
		t.Fatal(err)
	}
	c.CrashNode(0)
	if err := c.Run(30 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, e := range tr.Filter(KindFrameLoss) {
		if strings.Contains(e.Text, "(net 0)") {
			want++
		}
	}
	if want == 0 || userLosses != want {
		t.Fatalf("user observer saw %d losses, tracer saw %d on net 0", userLosses, want)
	}
}

// TestEngineFenceTimeline runs the same faulted scenario on two shards
// and on one: the sharded timeline must interleave the plan event
// (ACTION) with state-moving engine barriers (FENCE), while the
// one-shard timeline — where nothing crosses a barrier — records the
// ACTION and the one coordinator fence it forced.
func TestEngineFenceTimeline(t *testing.T) {
	c := core.New(core.Options{Nodes: 4, Switches: 2, Shards: 2})
	defer c.Close()
	tr := Attach(c)
	if err := c.Boot(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Install(core.Plan{core.CrashNode(5*sim.Millisecond, 3)}); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(30 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	acts := tr.Filter(KindActionRun)
	if len(acts) != 1 || acts[0].Text != "crash-node 3" {
		t.Fatalf("action events = %+v, want one crash-node 3", acts)
	}
	fences := tr.Filter(KindWindowFence)
	if len(fences) == 0 {
		t.Fatal("no window-fence events on a sharded run with cross-shard traffic")
	}
	for _, e := range fences {
		if e.Arg == 0 && !strings.Contains(e.Text, "coordinator fence") {
			t.Fatalf("idle barrier recorded: %+v", e)
		}
	}

	s := core.New(core.Options{Nodes: 4, Switches: 2})
	trs := Attach(s)
	if err := s.Boot(0); err != nil {
		t.Fatal(err)
	}
	if err := s.Install(core.Plan{core.CrashNode(5*sim.Millisecond, 3)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(30 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(trs.Filter(KindActionRun)) != 1 {
		t.Fatalf("serial action events = %+v", trs.Filter(KindActionRun))
	}
	if got := trs.Filter(KindWindowFence); len(got) != 1 || got[0].Arg != 0 || !strings.Contains(got[0].Text, "coordinator fence") {
		t.Fatalf("one-shard run's engine fences = %+v, want the crash's coordinator fence alone", got)
	}
}

func TestKindString(t *testing.T) {
	for k := KindRoster; k <= KindActionRun; k++ {
		if k.String() == "" {
			t.Fatal("empty kind name")
		}
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind name")
	}
}

// TestPeerDownStampIsShardCountInvariant crashes a node off the window
// grid: the survivors' PEER-DOWN events carry the declaring node's own
// clock, so the timeline is the same at one shard and at two (the
// engine clock — the window's start under shards — is not).
func TestPeerDownStampIsShardCountInvariant(t *testing.T) {
	downs := func(shards int) []Event {
		topo := phys.Sharded(2, 4, 2, 50)
		c := core.New(core.Options{Fabric: &topo, Seed: 3, Shards: shards})
		defer c.Close()
		tr := Attach(c)
		if err := c.Boot(0); err != nil {
			t.Fatal(err)
		}
		if err := c.Install(core.Plan{core.CrashNode(1137*sim.Microsecond, 7)}); err != nil {
			t.Fatal(err)
		}
		if err := c.Run(10 * sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		return tr.Filter(KindPeerDown)
	}
	one, two := downs(1), downs(2)
	if len(one) == 0 {
		t.Fatal("no PEER-DOWN events after the crash")
	}
	if !reflect.DeepEqual(one, two) {
		t.Fatalf("PEER-DOWN timeline differs by shard count:\n1 shard:  %+v\n2 shards: %+v", one, two)
	}
}

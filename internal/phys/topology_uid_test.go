package phys

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/sim"
)

// Two of the builder's names that share a 32-bit FNV-1a hash; the pair
// first appears in a 38 244-node fabric.
const collidingA, collidingB = "n38243.s0", "sw0.p18581"

func TestResolveUIDsSeparatesCollidingNames(t *testing.T) {
	if nameHash(collidingA) != nameHash(collidingB) {
		t.Fatalf("%s and %s no longer collide; pick another pair", collidingA, collidingB)
	}
	n := NewNet(sim.NewKernel(1))
	build := func(names ...string) map[string]uint32 {
		var ports []*Port
		for _, name := range names {
			ports = append(ports, n.NewPort(name, nil))
		}
		ports[0].uid = 0 // a name hashing to the plain events' priH
		resolveUIDs(ports)
		uids := map[string]uint32{}
		for _, p := range ports {
			uids[p.Name] = p.uid
		}
		return uids
	}
	got := build("zero", collidingB, "n0.s0", collidingA)
	if got[collidingA] != nameHash(collidingA) || got["n0.s0"] != nameHash("n0.s0") {
		t.Fatalf("the first name of a group and a name outside any must keep their hash: %v", got)
	}
	seen := map[uint32]string{}
	for name, uid := range got {
		if other, dup := seen[uid]; dup || uid == 0 {
			t.Fatalf("uid %#x of %s is zero or shared with %q", uid, name, other)
		}
		seen[uid] = name
	}
	// A function of the names alone: build order must not show.
	if again := build("zero", "n0.s0", collidingA, collidingB); !maps.Equal(got, again) {
		t.Fatalf("resolution depends on build order: %v vs %v", got, again)
	}
}

// The builder resolves the collision in a fabric big enough to hold it,
// alike on one Net and on two.
func TestBuildFabricResolvesUIDCollision(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 38 244-node fabric twice")
	}
	topo := Uniform(38244, 2, 10)
	uidsOf := func(c *Cluster) []uint32 {
		var uids []uint32
		for _, sw := range c.Switches {
			for _, p := range sw.ports {
				uids = append(uids, p.uid)
			}
		}
		for _, np := range c.NodePorts {
			for _, p := range np {
				if p != nil {
					uids = append(uids, p.uid)
				}
			}
		}
		return uids
	}
	one, err := BuildFabric(NewNet(sim.NewKernel(1)), topo)
	if err != nil {
		t.Fatal(err)
	}
	assign, err := AssignShards(&topo, 2)
	if err != nil {
		t.Fatal(err)
	}
	two, err := BuildFabricSharded([]*Net{NewNet(sim.NewKernel(1)), NewNet(sim.NewKernel(2))}, topo, assign)
	if err != nil {
		t.Fatal(err)
	}
	uids := uidsOf(one)
	if !slices.Equal(uids, uidsOf(two)) {
		t.Fatal("one-shard and two-shard builds disagree on port identities")
	}
	a, b := one.NodePorts[38243][0], one.Switches[0].ports[18581]
	if a.Name != collidingA || b.Name != collidingB || a.uid == b.uid {
		t.Fatalf("%s and %s: uids %#x and %#x", a.Name, b.Name, a.uid, b.uid)
	}
	n := len(uids)
	slices.Sort(uids)
	if uids[0] == 0 || len(slices.Compact(uids)) != n {
		t.Fatal("a built fabric has a zero or duplicate port uid")
	}
}

package rostering

import (
	"maps"
	"reflect"
	"slices"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/phys"
	"repro/internal/sim"
)

// decodeFabric turns fuzz bytes into a link-state database and a fabric
// view: node count ≤ 96, switch count 1..8, masks including 0, any
// symmetric trunk matrix (so cut and partitioned ones), counter-rotation
// on or off, a nil view, a view without trunks, dense or sparse ids.
// Short inputs read as zeros.
func decodeFabric(data []byte) (map[int]LinkState, *phys.FabricView) {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	nodes, switches, flags := int(at(0))%97, int(at(1))%8+1, at(2)
	view := &phys.FabricView{Switches: switches, CounterRotating: flags&1 != 0}
	if flags&4 == 0 {
		bit := 0
		for i := 0; i < switches; i++ {
			for j := i + 1; j < switches; j++ {
				if at(3+bit/8)>>(bit%8)&1 != 0 {
					view.Join(i, j)
				}
				bit++
			}
		}
	}
	lsdb := make(map[int]LinkState, nodes)
	for i := 0; i < nodes; i++ {
		id := i
		if flags&8 != 0 {
			id = 3*i + 5
		}
		lsdb[id] = LinkState(at(7+i)) & (1<<switches - 1)
	}
	if flags&2 != 0 {
		return lsdb, nil
	}
	return lsdb, view
}

// ringsFabric is the database of a Sharded(rings, perRing, 1) fabric:
// single-switch rings of perRing nodes, switch s trunked to s+1 (mod
// rings) — the shape both scale-idle workloads boot.
func ringsFabric(rings, perRing int) (map[int]LinkState, *phys.FabricView) {
	view := &phys.FabricView{Switches: rings}
	for s := 0; s < rings; s++ {
		view.Join(s, (s+1)%rings)
	}
	lsdb := make(map[int]LinkState, rings*perRing)
	for i := 0; i < rings*perRing; i++ {
		lsdb[i] = 1 << (i / perRing)
	}
	return lsdb, view
}

// fabricSeeds are the seeded table: hand-picked shapes, then random ones.
func fabricSeeds() [][]byte {
	seeds := [][]byte{
		{},
		{1, 0, 0, 0, 0, 0, 0, 1},
		{4, 1, 1, 0xff, 0xff, 0xff, 0xff, 2, 2, 3, 1},                       // dual ring, switch 0 dark for some: reversed
		{6, 3, 0, 0, 0, 0, 0, 1, 2, 4, 8, 1, 2},                             // four switches, every trunk cut
		{8, 3, 0, 0b100001, 0, 0, 0, 1, 1, 2, 2, 4, 4, 8, 8},                // trunks 0-1 and 2-3 only: partitioned
		{8, 3, 0, 0b001101, 0, 0, 0, 1, 2, 4, 8, 1, 2, 4, 8},                // a trunk chain: multi-hop paths
		{9, 7, 2, 0xff, 0xff, 0xff, 0xff, 1, 2, 4, 8, 16, 32, 64, 128, 255}, // nil view
		{9, 7, 4, 0xff, 0xff, 0xff, 0xff, 1, 3, 6, 12, 24, 48, 96, 192, 0},  // view without trunks
		{12, 7, 9, 0xaa, 0x55, 0xaa, 0x05, 1, 0, 2, 0, 4, 8, 16, 32, 64, 128, 1, 2},
	}
	rng := sim.NewRNG(20)
	for i := 0; i < 200; i++ {
		b := make([]byte, 7+96)
		for j := range b {
			b[j] = byte(rng.Uint64())
		}
		if i%3 == 0 {
			// Few distinct single-switch masks: the shape of real fabrics.
			for j := 7; j < len(b); j++ {
				b[j] = 1 << (b[j] % 8)
			}
		}
		seeds = append(seeds, b)
	}
	return seeds
}

// checkBuild asserts the table-driven build returns exactly what the
// reference does, and a ring that is valid in the fabric.
func checkBuild(t *testing.T, lsdb map[int]LinkState, view *phys.FabricView) *Roster {
	t.Helper()
	return checkRoster(t, BuildRosterFabric(7, lsdb, view), lsdb, view)
}

// checkRounds is checkBuild through rs, which an agent's adoption
// drives: the database in dense form, the view by value.
func checkRounds(t *testing.T, rs *Rounds, lsdb map[int]LinkState, view *phys.FabricView) *Roster {
	t.Helper()
	ids, masks := dense(lsdb)
	var v phys.FabricView
	if view != nil {
		v = *view
	}
	return checkRoster(t, rs.Build(7, ids, masks, v), lsdb, view)
}

// dense is a database in the form an agent hands Rounds.Build.
func dense(lsdb map[int]LinkState) (ids []int, masks []LinkState) {
	for _, id := range slices.Sorted(maps.Keys(lsdb)) {
		if lsdb[id] != 0 {
			ids, masks = append(ids, id), append(masks, lsdb[id])
		}
	}
	return ids, masks
}

// checkRoster asserts got is the reference's roster, starts at its
// lowest node (what Equal, and ampdk's semaphore home and configuration
// writer, rely on) and is valid in the fabric.
func checkRoster(t *testing.T, got *Roster, lsdb map[int]LinkState, view *phys.FabricView) *Roster {
	t.Helper()
	want := refBuildRosterFabric(7, lsdb, view)
	if !slices.Equal(got.Nodes, want.Nodes) || !reflect.DeepEqual(got.Paths, want.Paths) {
		t.Fatalf("lsdb %v view %+v:\n got  %v\n want %v", lsdb, view, got, want)
	}
	if (got.Paths == nil) != (want.Paths == nil) || got.Epoch != want.Epoch {
		t.Fatalf("lsdb %v: roster shape differs: got %#v want %#v", lsdb, got, want)
	}
	if len(got.Nodes) > 0 && got.Nodes[0] != slices.Min(got.Nodes) {
		t.Fatalf("lsdb %v view %+v: ring %v does not start at its lowest node", lsdb, view, got)
	}
	if !got.ValidInFabric(lsdb, view) {
		t.Fatalf("lsdb %v view %+v: invalid roster %v", lsdb, view, got)
	}
	return got
}

func TestBuildRosterMatchesReference(t *testing.T) {
	for _, seed := range fabricSeeds() {
		lsdb, view := decodeFabric(seed)
		checkBuild(t, lsdb, view)
	}
	lsdb, view := ringsFabric(8, 16)
	if r := checkBuild(t, lsdb, view); r.Size() != 128 {
		t.Fatalf("8x16 rings: ring of %d, want 128", r.Size())
	}
}

func FuzzBuildRoster(f *testing.F) {
	// The hand-picked shapes and a few random ones seed the corpus;
	// TestBuildRosterMatchesReference runs the whole table.
	for _, seed := range fabricSeeds()[:24] {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		lsdb, view := decodeFabric(data)
		checkBuild(t, lsdb, view)
		// One Rounds through a sequence of rounds, as a shard's agents
		// drive it: a cell or store row left from the round before, or
		// a memo answering for different inputs, shows as a wrong ring.
		// B is the second half of the input; C is A's database under
		// B's view, which only the view tells apart.
		lsdbB, viewB := decodeFabric(data[len(data)/2:])
		var rs Rounds
		for _, db := range []struct {
			lsdb map[int]LinkState
			view *phys.FabricView
		}{{lsdb, view}, {lsdbB, viewB}, {lsdb, view}, {lsdbB, viewB}, {lsdb, viewB}, {lsdb, view}, {lsdb, view}} {
			checkRounds(t, &rs, db.lsdb, db.view)
		}
	})
}

// TestIdenticalIsStringEquality: Identical must be true exactly when
// the rendered strings are equal, and String must render byte for byte
// what the fmt-based renderer did.
func TestIdenticalIsStringEquality(t *testing.T) {
	check := func(a, b *Roster) {
		t.Helper()
		if got, want := a.Identical(b), refString(a) == refString(b); got != want {
			t.Fatalf("Identical = %v, strings equal = %v:\n %v\n %v", got, want, a, b)
		}
	}
	for _, seed := range fabricSeeds() {
		lsdb, view := decodeFabric(seed)
		r := BuildRosterFabric(3, lsdb, view)
		if got, want := r.String(), refString(r); got != want {
			t.Fatalf("String:\n got  %q\n want %q", got, want)
		}
		variants := []*Roster{r, BuildRosterFabric(3, lsdb, view), BuildRosterFabric(4, lsdb, view), {Epoch: 3}, {Epoch: 4}}
		if n := r.Size(); n >= 2 {
			rot := &Roster{Epoch: r.Epoch}
			for i := range r.Nodes {
				rot.Nodes = append(rot.Nodes, r.Nodes[(i+1)%n])
				rot.Paths = append(rot.Paths, r.Paths[(i+1)%n])
			}
			longer := &Roster{Epoch: r.Epoch, Nodes: r.Nodes, Paths: slices.Clone(r.Paths)}
			longer.Paths[n-1] = append(slices.Clone(r.Paths[n-1]), 7)
			other := &Roster{Epoch: r.Epoch, Nodes: r.Nodes, Paths: slices.Clone(r.Paths)}
			other.Paths[0] = []int{r.Paths[0][0] + 1}
			noHops := &Roster{Epoch: r.Epoch, Nodes: r.Nodes}
			variants = append(variants, rot, longer, other, noHops)
		}
		for _, a := range variants {
			if got, want := a.String(), refString(a); got != want {
				t.Fatalf("String:\n got  %q\n want %q", got, want)
			}
			for _, b := range variants {
				check(a, b)
			}
		}
	}
	if (&Roster{}).Identical(nil) {
		t.Fatal("Identical(nil) = true")
	}
}

// TestBuildRosterAllocs bounds the build on the 128-node, 8-ring
// database with a fresh builder, which is what BuildRosterFabric is:
// 17 allocations, 3 of them the roster (the per-probe BFS it replaced
// allocated 1 340 times here). A shard's Rounds reuses the rest.
func TestBuildRosterAllocs(t *testing.T) {
	lsdb, view := ringsFabric(8, 16)
	if n := testing.AllocsPerRun(20, func() { BuildRosterFabric(1, lsdb, view) }); n > 17 {
		t.Fatalf("BuildRosterFabric allocates %.0f times on 8x16 rings, want <= 17", n)
	}
	// A warm Rounds allocates the roster and nothing else, and answers a
	// round it has just built from its memo.
	var rs Rounds
	ids, masks := dense(lsdb)
	epoch := uint32(1)
	if n := testing.AllocsPerRun(20, func() { epoch++; rs.Build(epoch, ids, masks, *view) }); n > 3 {
		t.Fatalf("Rounds.Build allocates %.0f times a new round on 8x16 rings, want <= 3", n)
	}
	if n := alloctest.Count(20, func() { rs.Build(epoch, ids, masks, *view) }); n != 0 {
		t.Fatalf("20 Rounds.Build calls for the round it just built allocate %d times, want 0", n)
	}
}

var benchRoster *Roster

// BenchmarkBuildRoster times the table-driven build against the
// reference on the 128-node, 8-ring database.
func BenchmarkBuildRoster(b *testing.B) {
	lsdb, view := ringsFabric(8, 16)
	b.Run("table", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			benchRoster = BuildRosterFabric(1, lsdb, view)
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			benchRoster = refBuildRosterFabric(1, lsdb, view)
		}
	})
}

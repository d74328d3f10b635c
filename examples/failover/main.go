// Failover: the paper's headline scenario (slides 18–19). A primary
// application checkpoints its state into the replicated network cache;
// when its host dies mid-run (a planned CrashNode event), control
// passes to the best qualified surviving node within the
// application-defined fail-over period, the rules of recovery replay
// the last committed checkpoint, and no committed data is lost.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"log"
	"os"

	ampnet "repro"
)

func main() {
	jsonOut := flag.String("json", "", "write the deterministic JSON report to this file")
	flag.Parse()
	c := ampnet.New(ampnet.Options{
		Nodes:    4,
		Switches: 2,
		Regions:  map[uint8]int{1: 4096},
	})
	if err := c.Boot(0); err != nil {
		log.Fatal(err)
	}

	// One control group over all nodes. Node 0 is best qualified; the
	// application chose a 1 ms fail-over period.
	cfg := ampnet.GroupConfig{
		ID:      1,
		Members: []int{0, 1, 2, 3},
		Rank:    map[int]int{0: 10, 1: 7, 2: 5, 3: 1},
		Period:  1 * ampnet.Millisecond,
		State:   ampnet.NewDoubleBuffer(1, 0, 8),
	}
	groups := make([]*ampnet.Group, 4)
	for i := range groups {
		groups[i] = c.Node(i).Manager().AddGroup(cfg)
	}
	fmt.Printf("t=%v  primary is node %d (best qualified)\n", c.Now(), groups[1].Primary())

	// The "application": a transaction counter the primary checkpoints
	// into the network cache every 200 µs.
	committed := uint64(0)
	if err := c.Every(0, 200*ampnet.Microsecond, func() bool {
		if !groups[0].IsPrimary() || !c.Node(0).Online() {
			return false
		}
		committed++
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], committed)
		if err := groups[0].CheckpointState(buf[:]); err != nil {
			log.Fatal(err)
		}
		return true
	}); err != nil {
		log.Fatal(err)
	}

	// Rules of recovery on every standby: resume from the recovered
	// checkpoint.
	tookOver := false
	for i := 1; i < 4; i++ {
		groups[i].OnTakeover = func(state []byte) {
			tookOver = true
			recovered := uint64(0)
			if state != nil {
				recovered = binary.LittleEndian.Uint64(state)
			}
			fmt.Printf("t=%v  node %d takes control; recovers transaction #%d (primary reached #%d)\n",
				c.Nodes[i].K.Now(), i, recovered, committed)
			if committed-recovered <= 1 {
				fmt.Printf("         no committed data lost (#%d was still replicating when the host died)\n", committed)
			} else {
				fmt.Printf("         DATA LOSS: %d transactions\n", committed-recovered)
			}
		}
	}

	// The fault plan: the primary's host dies mid-run.
	c.OnEvent = func(e ampnet.Event) {
		fmt.Printf("t=%v  %s (primary dies after %d commits)\n", c.Now(), e, committed)
	}
	if err := c.Install(ampnet.Plan{ampnet.CrashNode(5*ampnet.Millisecond, 0)}); err != nil {
		log.Fatal(err)
	}
	if err := c.WaitUntil(func() bool { return tookOver }, 25*ampnet.Millisecond); err != nil {
		log.Fatal(err)
	}
	if err := c.WaitHealed(10 * ampnet.Millisecond); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("t=%v  new primary everywhere: node %d\n", c.Now(), groups[2].Primary())
	fmt.Printf("t=%v  ring healed without node 0: %s\n", c.Now(), c.Roster())
	if *jsonOut != "" {
		if err := os.WriteFile(*jsonOut, c.Snapshot("failover").JSON(), 0o644); err != nil {
			log.Fatal(err)
		}
	}
}

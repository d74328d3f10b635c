// Allreduce: the MPI-over-AmpNet story of slide 12. A CollectiveLoad
// runs the inner loop of data-parallel HPC codes — each iteration
// all-reduces a global sum and barriers to stay in step — across eight
// ranks. Midway, a planned FailLink event cuts a node's fiber and the
// ring heals without the job noticing more than a hiccup.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	ampnet "repro"
)

const (
	ranks = 8
	iters = 12
)

func main() {
	jsonOut := flag.String("json", "", "write the deterministic JSON report to this file")
	flag.Parse()
	c := ampnet.New(ampnet.Options{Nodes: ranks, Switches: 4})
	if err := c.Boot(0); err != nil {
		log.Fatal(err)
	}

	k := c.Nodes[0].K // rank 0's clock: rank 0 calls OnIter
	iterStart := k.Now()
	job := &ampnet.CollectiveLoad{
		Name:  "allreduce",
		Iters: iters,
		OnIter: func(iter int, sum uint64) {
			fmt.Printf("iter %2d  t=%v  global sum = %-8d (%v/iter)\n",
				iter, k.Now(), sum, k.Now()-iterStart)
			iterStart = k.Now()
		},
	}

	// Cut a link used by the ring midway through the job.
	c.OnEvent = func(e ampnet.Event) { fmt.Printf("---- t=%v  %s ----\n", c.Now(), e) }
	if err := c.Install(ampnet.Plan{ampnet.FailLink(400*ampnet.Microsecond, 3, 0)}); err != nil {
		log.Fatal(err)
	}

	al := c.StartLoad(job)
	if err := c.WaitUntil(al.Done, 100*ampnet.Millisecond); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("completed %d iterations\n", al.Report().Iters)
	fmt.Printf("final ring: %s\n", c.Roster())
	fmt.Printf("congestion drops: %d\n", c.Drops())
	if *jsonOut != "" {
		if err := os.WriteFile(*jsonOut, c.Snapshot("allreduce", al).JSON(), 0o644); err != nil {
			log.Fatal(err)
		}
	}
}

// Noisyfiber: the full cluster running in deep-PHY mode — every frame
// is serialized through the real MicroPacket wire codec and the 8b/10b
// line code — over fiber with an injected bit-error rate. Corrupted
// frames are discarded by the receive hardware (code violations, CRC);
// the kernel's smart data recovery (slide 18) repairs the replicated
// cache. A CacheChurn load writes a counter stream and audits every
// replica at the end: the application-visible state stays exact.
package main

import (
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
		DeepPHY:  true,
		BER:      5e-5, // one bad symbol per ~20k: harsh for a fiber link
	})
	if err := c.Boot(0); err != nil {
		log.Fatal(err)
	}
	for i := range c.Nodes {
		c.Node(i).DK().EnableAutoRecovery(2 * ampnet.Millisecond)
	}
	fmt.Printf("t=%v  cluster online over deep PHY (8b/10b in the loop), BER 5e-5\n", c.Now())

	// A counter stream: node 0 writes an increasing value into the
	// replicated cache 500 times; the load audits the replicas at
	// report time.
	churn := &ampnet.CacheChurn{
		Name:   "counter",
		Writer: 0,
		Record: ampnet.Record{Region: 1, Off: 0, Size: 8},
		Every:  40 * ampnet.Microsecond,
		Count:  500,
	}
	al := c.StartLoad(churn)
	if err := c.WaitUntil(al.Done, 60*ampnet.Millisecond); err != nil {
		log.Fatal(err)
	}
	if err := c.Run(10 * ampnet.Millisecond); err != nil { // let auto-recovery repair any gaps
		log.Fatal(err)
	}
	rep := al.Report()

	fmt.Printf("t=%v  wrote %d updates\n", c.Now(), rep.Sent)
	a := c.FrameAcct()
	fmt.Printf("frames killed by bit errors (CRC/code violations): %d\n", a.CRCDrops())
	gaps, recoveries := uint64(0), uint64(0)
	for i := range c.Nodes {
		gaps += c.Node(i).DK().DMA.Gaps
		recoveries += c.Node(i).DK().AutoRecoveries
	}
	fmt.Printf("sequence gaps detected: %d; auto-recovery rounds: %d\n", gaps, recoveries)

	fmt.Printf("replicas exact: %d, stale: %d\n", rep.ExactReplicas, rep.StaleReplicas)
	if rep.StaleReplicas == 0 {
		fmt.Println("all replicas exact despite the noisy fiber — CRC discard + smart recovery")
	}
	if *jsonOut != "" {
		if err := os.WriteFile(*jsonOut, c.Snapshot("noisyfiber", al).JSON(), 0o644); err != nil {
			log.Fatal(err)
		}
	}
}

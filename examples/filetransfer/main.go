// Filetransfer: slide 7's picture made concrete — a FileStream load
// pushes a large file over a DMA channel while a PubSubLoad keeps a
// low-latency message stream on the same segment. The fine-grain
// multiplexed DMA channels keep the messages from queueing behind the
// file; the loads' built-in accounting reports both sides.
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
	c := ampnet.New(ampnet.Options{Nodes: 4, Switches: 2})
	if err := c.Boot(0); err != nil {
		log.Fatal(err)
	}

	// A 1 MiB "simulation results" file from node 0 to node 1.
	file := &ampnet.FileStream{
		Name:     "results",
		From:     0,
		To:       1,
		FileName: "results-1MiB.bin",
		Size:     1 << 20,
		OnFile: func(_ int, ok bool, took ampnet.Time) {
			status := "CRC ok"
			if !ok {
				status = "CORRUPT"
			}
			mbps := float64(1<<20) * 8 / took.Seconds() / 1e6
			fmt.Printf("t=%v  node 1 received the file (%s) in %v\n", c.Nodes[1].K.Now(), status, took)
			fmt.Printf("         effective file throughput: %.0f Mb/s\n", mbps)
		},
	}

	// Concurrent message stream: node 2 → node 3, one message per
	// 50 µs; the load tracks worst-case latency while the file hogs
	// the ring.
	msgs := &ampnet.PubSubLoad{
		Name:        "messages",
		Publisher:   2,
		Topic:       9,
		Subscribers: []int{3},
		Every:       50 * ampnet.Microsecond,
		Count:       400,
	}

	fa, ma := c.StartLoad(file), c.StartLoad(msgs)
	if err := c.WaitUntil(func() bool { return fa.Done() && ma.Done() }, 50*ampnet.Millisecond); err != nil {
		log.Fatal(err)
	}
	if err := c.Run(2 * ampnet.Millisecond); err != nil { // drain the message tail
		log.Fatal(err)
	}

	fr, mr := fa.Report(), ma.Report()
	if fr.Files == 0 {
		log.Fatal("file never completed")
	}
	fmt.Printf("t=%v  %d messages interleaved with the file; worst message latency %v\n",
		c.Now(), mr.Delivered, ampnet.Time(mr.MaxLatencyNS))
	fmt.Printf("congestion drops: %d\n", c.Drops())
	if *jsonOut != "" {
		if err := os.WriteFile(*jsonOut, c.Snapshot("filetransfer", fa, ma).JSON(), 0o644); err != nil {
			log.Fatal(err)
		}
	}
}

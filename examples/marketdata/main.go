// Marketdata: AmpSubscribe under a realistic fan-out workload — the
// kind of real-time distribution AmpNet's network-centric services
// (slide 12) target. A PubSubLoad plays the feed: one node publishes
// price ticks, every other node subscribes, and the load's built-in
// sequence accounting measures gaps and the worst inter-tick outage.
// A Plan kills a switch mid-stream; the feed survives the heal with
// its gap bounded by the rostering window.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"log"
	"os"

	ampnet "repro"
)

const (
	topicTicks = 1
	nSymbols   = 8
	tickEvery  = 20 * ampnet.Microsecond
	nTicks     = 1500 // 30 ms of feed at one tick per 20 µs
)

func main() {
	jsonOut := flag.String("json", "", "write the deterministic JSON report to this file")
	flag.Parse()
	c := ampnet.New(ampnet.Options{Nodes: 6, Switches: 4})
	if err := c.Boot(0); err != nil {
		log.Fatal(err)
	}

	// Consumers: every subscriber tracks last price and per-symbol
	// counts; sequence gaps and outage windows come from the load.
	type book struct {
		count [nSymbols]int
		last  [nSymbols]uint32
	}
	books := make([]book, 6)

	// The feed: symbol and a random-walk price in the payload; the
	// load stamps sequence numbers and send times on its own.
	price := uint32(10000)
	rng := uint32(12345)
	feed := &ampnet.PubSubLoad{
		Name:      "ticks",
		Publisher: 0,
		Topic:     topicTicks,
		Every:     tickEvery,
		Count:     nTicks,
		Payload:   5,
		Fill: func(_ uint64, buf []byte) {
			rng = rng*1664525 + 1013904223
			if rng&1 == 0 {
				price++
			} else {
				price--
			}
			buf[0] = byte(rng % nSymbols)
			binary.LittleEndian.PutUint32(buf[1:5], price)
		},
		OnDeliver: func(node int, _ uint64, data []byte) {
			b := &books[node]
			sym := data[0] % nSymbols
			b.count[sym]++
			b.last[sym] = binary.LittleEndian.Uint32(data[1:5])
		},
	}

	// Mid-run: a switch dies. The ring heals; the feed continues.
	c.OnEvent = func(e ampnet.Event) { fmt.Printf("t=%v  %s mid-feed\n", c.Now(), e) }
	if err := c.Install(ampnet.Plan{ampnet.FailSwitch(15*ampnet.Millisecond, 0)}); err != nil {
		log.Fatal(err)
	}

	al := c.StartLoad(feed)
	if err := c.WaitUntil(al.Done, 60*ampnet.Millisecond); err != nil {
		log.Fatal(err)
	}
	if err := c.Run(5 * ampnet.Millisecond); err != nil { // drain the tail of the stream
		log.Fatal(err)
	}
	rep := al.Report()

	fmt.Printf("published %d ticks at one per %v\n", rep.Sent, tickEvery)
	for _, pn := range rep.PerNode {
		total := 0
		for s := 0; s < nSymbols; s++ {
			total += books[pn.Node].count[s]
		}
		fmt.Printf("  node %d received %d ticks, %d sequence gaps\n", pn.Node, total, pn.Gaps)
	}
	fmt.Printf("worst inter-tick gap: %v (heal window; steady state is %v)\n",
		ampnet.Time(rep.MaxGapNS), tickEvery)
	fmt.Printf("congestion drops: %d\n", c.Drops())
	fmt.Printf("final ring: %s\n", c.Roster())
	if *jsonOut != "" {
		if err := os.WriteFile(*jsonOut, c.Snapshot("marketdata", al).JSON(), 0o644); err != nil {
			log.Fatal(err)
		}
	}
}

package experiments

import (
	"fmt"

	"repro/internal/ampip"
	"repro/internal/core"
	"repro/internal/sim"
)

// E12Collectives reproduces the slide-3/12 stack figures functionally:
// IP-style datagrams and MPI-style collectives running over the
// MicroPacket network, with a latency/bandwidth table.
func E12Collectives(p Params) *Table {
	p = p.Merged(Params{Nodes: 8, Switches: 2})
	nodes := p.Nodes
	t := &Table{
		ID:     "E12",
		Title:  "AmpIP + MPI-style middleware over MicroPackets (paper slides 3, 12)",
		Header: []string{"operation", "size B", "latency", "bandwidth Mb/s"},
	}
	c := core.New(core.Options{Nodes: nodes, Switches: p.Switches, Seed: p.seed()})
	if err := c.Boot(0); err != nil {
		t.Note("boot failed: %v", err)
		return t
	}
	var ids []int
	for i := 0; i < nodes; i++ {
		ids = append(ids, i)
	}
	var comms []*ampip.Comm
	for i := 0; i < nodes; i++ {
		comms = append(comms, ampip.NewComm(c.Node(i).Stack(), ids, 7000))
	}

	// Datagram RTT (ping-pong over sockets).
	{
		const pings = 20
		var start sim.Time
		var rtts []sim.Time
		c.Node(1).Stack().Bind(100, func(src ampip.Addr, sp uint16, data []byte) {
			c.Node(1).Stack().SendTo(src, sp, 100, data)
		})
		n := 0
		var fire func()
		c.Node(0).Stack().Bind(101, func(_ ampip.Addr, _ uint16, _ []byte) {
			rtts = append(rtts, c.Nodes[0].K.Now()-start)
			n++
			if n < pings {
				fire()
			}
		})
		fire = func() {
			start = c.Nodes[0].K.Now()
			c.Node(0).Stack().SendTo(ampip.NodeToIP(1), 100, 101, make([]byte, 64))
		}
		c.Nodes[0].K.After(0, fire)
		if failed(t, c.Run(20*sim.Millisecond)) {
			return t
		}
		if len(rtts) > 0 {
			var sum sim.Time
			for _, r := range rtts {
				sum += r
			}
			t.Add("UDP-like RTT (64 B)", "64", (sum / sim.Time(len(rtts))).String(), "-")
		}
	}

	// Stream bandwidth: 256 KB of back-to-back datagrams.
	{
		const total = 256 * 1024
		const dgram = 8192
		var doneAt sim.Time
		got := 0
		c.Node(3).Stack().Bind(200, func(_ ampip.Addr, _ uint16, data []byte) {
			got += len(data)
			if got >= total {
				doneAt = c.Nodes[3].K.Now()
			}
		})
		startAt := c.Now()
		c.Nodes[2].K.After(0, func() {
			for off := 0; off < total; off += dgram {
				c.Node(2).Stack().SendTo(ampip.NodeToIP(3), 200, 200, make([]byte, dgram))
			}
		})
		if failed(t, c.Run(100*sim.Millisecond)) {
			return t
		}
		if doneAt > 0 {
			mbps := float64(total) * 8 / (doneAt - startAt).Seconds() / 1e6
			t.Add("stream (datagrams)", fmt.Sprint(total), (doneAt - startAt).String(), fmt.Sprintf("%.0f", mbps))
		} else {
			t.Add("stream (datagrams)", fmt.Sprint(total), "INCOMPLETE", "-")
		}
	}

	// Collectives.
	runColl := func(name string, start func(done func())) {
		if c.Err() != nil {
			return
		}
		var t0, t1 sim.Time
		fired := false
		c.Nodes[0].K.After(0, func() {
			t0 = c.Nodes[0].K.Now()
			start(func() {
				if !fired {
					fired = true
					t1 = c.Nodes[0].K.Now()
				}
			})
		})
		if failed(t, c.Run(50*sim.Millisecond)) {
			return
		}
		if fired {
			t.Add(name, "-", (t1 - t0).String(), "-")
		} else {
			t.Add(name, "-", "INCOMPLETE", "-")
		}
	}
	runColl(fmt.Sprintf("barrier (%d ranks)", nodes), func(done func()) {
		remaining := nodes
		for _, cm := range comms {
			cm.Barrier(func() {
				remaining--
				if remaining == 0 {
					done()
				}
			})
		}
	})
	runColl(fmt.Sprintf("allreduce sum (%d ranks)", nodes), func(done func()) {
		remaining := nodes
		for i, cm := range comms {
			cm.AllReduceSum(uint64(i), func(uint64) {
				remaining--
				if remaining == 0 {
					done()
				}
			})
		}
	})
	runColl("bcast 1 KB", func(done func()) {
		remaining := nodes
		payload := make([]byte, 1024)
		for i, cm := range comms {
			data := payload
			if i != 0 {
				data = nil
			}
			cm.Bcast(0, data, func([]byte) {
				remaining--
				if remaining == 0 {
					done()
				}
			})
		}
	})
	runColl("all-to-all 256 B blocks", func(done func()) {
		remaining := nodes
		for _, cm := range comms {
			blocks := make([][]byte, nodes)
			for j := range blocks {
				blocks[j] = make([]byte, 256)
			}
			cm.AllToAll(blocks, func([][]byte) {
				remaining--
				if remaining == 0 {
					done()
				}
			})
		}
	})
	t.Note("functional reproduction of the stack figure: sockets and collectives over the ring; absolute numbers are model numbers")
	return t
}

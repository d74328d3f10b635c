package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/ampdk"
	"repro/internal/micropacket"
	"repro/internal/netcache"
	"repro/internal/phys"
	"repro/internal/sim"
)

// TestDeepPHYFullStack boots an entire cluster with every frame passing
// through the real MicroPacket + 8b/10b datapath bit-for-bit.
func TestDeepPHYFullStack(t *testing.T) {
	c := New(Options{Nodes: 4, Switches: 2, DeepPHY: true, Regions: map[uint8]int{1: 4096}})
	if err := c.Boot(0); err != nil {
		t.Fatal(err)
	}
	// Messaging.
	var got []byte
	c.Services[3].Sub.Subscribe(1, func(_ micropacket.NodeID, data []byte) { got = bytes.Clone(data) })
	c.Services[0].Sub.Publish(1, []byte("through the real datapath"))
	mustRun(t, c, 3*sim.Millisecond)
	if string(got) != "through the real datapath" {
		t.Fatalf("pubsub over deep PHY: %q", got)
	}
	// Cache.
	rec := netcache.Record{Region: 1, Off: 0, Size: 32}
	want := bytes.Repeat([]byte{0x3C}, 32)
	c.Nodes[1].CacheW.WriteRecord(rec, want)
	mustRun(t, c, 3*sim.Millisecond)
	if d, ok := c.Nodes[2].Cache.TryRead(rec); !ok || !bytes.Equal(d, want) {
		t.Fatal("cache over deep PHY failed")
	}
	// Self-heal still works with the full datapath.
	c.FailSwitch(0)
	mustRun(t, c, 10*sim.Millisecond)
	if c.RingSize() != 4 {
		t.Fatalf("heal over deep PHY: ring = %d", c.RingSize())
	}
	if a := c.FrameAcct(); a.CRCDrops() != 0 {
		t.Fatalf("CRC drops on clean links: %d", a.CRCDrops())
	}
	if c.Drops() != 0 {
		t.Fatalf("congestion drops: %d", c.Drops())
	}
}

// TestDeepPHYReportIdentical: without bit errors the deep datapath
// delivers exactly the frames plain PHY does, tags included, so the
// equivalence battery's scenario reports byte-for-byte the same with
// DeepPHY on, on every fabric shape at one and two shards.
func TestDeepPHYReportIdentical(t *testing.T) {
	for _, topo := range equivalenceFabrics() {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s%dx%d/shards=%d", topo.Name, topo.Nodes, topo.Switches, shards), func(t *testing.T) {
				plain, err := equivalenceScenario(&topo, 1, shards).Run()
				if err != nil {
					t.Fatal(err)
				}
				s := equivalenceScenario(&topo, 1, shards)
				s.Opts.DeepPHY = true
				deep, err := s.Run()
				if err != nil {
					t.Fatalf("DeepPHY: %v", err)
				}
				if !bytes.Equal(plain.JSON(), deep.JSON()) {
					t.Errorf("DeepPHY report diverged from plain PHY\n--- plain ---\n%s--- deep ---\n%s", plain.JSON(), deep.JSON())
				}
			})
		}
	}
}

// TestDeepPHYEncodeFailureIsNamedError: a packet the wire encoder
// refuses is a model fault, not a line error. Plain PHY would deliver
// it, so counting it as a CRC loss would break the promise of
// TestDeepPHYReportIdentical without a word; instead the run ends with
// an error naming the packet and the encoder's refusal, at one shard
// and at two.
func TestDeepPHYEncodeFailureIsNamedError(t *testing.T) {
	topo := phys.Sharded(2, 4, 2, 50)
	for _, tc := range []struct {
		name string
		pkt  func() *micropacket.Packet
	}{
		{"data-with-bytes", func() *micropacket.Packet {
			p := micropacket.NewData(0, 1, ampdk.TagApp, nil)
			p.Data = []byte{1, 2, 3}
			return p
		}},
		{"dma-length", func() *micropacket.Packet {
			p := micropacket.NewDMA(0, 1, micropacket.DMAHeader{Channel: 1}, []byte{1, 2, 3, 4})
			p.DMA.Length = 9
			return p
		}},
	} {
		for _, shards := range []int{1, 2} {
			c := New(Options{Fabric: &topo, Shards: shards, DeepPHY: true})
			defer c.Close()
			if err := c.Boot(0); err != nil {
				t.Fatal(err)
			}
			mustRun(t, c, sim.Millisecond)
			pkt := tc.pkt()
			c.Nodes[0].K.After(100*sim.Microsecond, func() { c.Nodes[0].Station.Send(pkt) })
			err := c.Run(sim.Millisecond)
			want := []string{"shard 0 panicked in window", "DeepPHY cannot encode", pkt.String(), micropacket.ErrLengthMism.Error()}
			for _, w := range want {
				if err == nil || !strings.Contains(err.Error(), w) {
					t.Fatalf("%s shards=%d: run ended with %v, want an error containing %q", tc.name, shards, err, w)
				}
			}
			if a := c.FrameAcct(); a.CRCDrops() != 0 {
				t.Fatalf("%s shards=%d: the refused packet was counted as %d CRC drops", tc.name, shards, a.CRCDrops())
			}
		}
	}
}

// TestDeepPHYWithBitErrors injects a 1e-4 per-symbol error rate: frames
// are discarded by the hardware CRC (never delivered corrupted) and the
// services above survive via retransmission and recovery.
func TestDeepPHYWithBitErrors(t *testing.T) {
	c := New(Options{Nodes: 3, Switches: 2, DeepPHY: true, BER: 1e-4, Regions: map[uint8]int{1: 2048}})
	if err := c.Boot(0); err != nil {
		t.Fatal(err)
	}
	for _, nd := range c.Nodes {
		nd.EnableAutoRecovery(2 * sim.Millisecond)
	}
	// Stream cache writes; the final state must converge everywhere
	// despite frames dying to bit errors along the way.
	rec := netcache.Record{Region: 1, Off: 0, Size: 16}
	i := byte(0)
	var tick func()
	tick = func() {
		i++
		c.Nodes[0].CacheW.WriteRecord(rec, bytes.Repeat([]byte{i}, 16))
		if i < 100 {
			c.Nodes[0].K.After(50*sim.Microsecond, tick)
		}
	}
	c.Nodes[0].K.After(0, tick)
	mustRun(t, c, 80*sim.Millisecond)

	a := c.FrameAcct()
	if a.CRCDrops() == 0 {
		t.Skip("no frame hit a bit error at this BER/seed; nothing exercised")
	}
	want := bytes.Repeat([]byte{100}, 16)
	for id, nd := range c.Nodes {
		got, ok := nd.Cache.TryRead(rec)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("node %d did not converge under bit errors (CRC drops=%d): %v ok=%v",
				id, a.CRCDrops(), got[:2], ok)
		}
	}
}

package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/micropacket"
	"repro/internal/sim"
)

// TestPublisherMayReuseItsBuffer: Publish copies what outlives the call
// and subscribers borrow what arrives, so on a 16 × 4 ring every
// subscriber sees the bytes that were published although the publisher
// scribbles over its buffer the moment Publish returns — for a message
// with no body, one segment's worth and 1 KiB, from two publishers whose
// multi-segment messages interleave on one topic (assembly is keyed by
// source).
func TestPublisherMayReuseItsBuffer(t *testing.T) {
	c := New(Options{Nodes: 16, Switches: 4, Seed: 9})
	defer c.Close()
	if err := c.Boot(0); err != nil {
		t.Fatal(err)
	}
	const topic, rounds = 3, 6
	publishers := []int{2, 11}
	message := func(pub, round, size int) []byte {
		b := make([]byte, size)
		for i := range b {
			b[i] = byte(pub*7 + round*31 + i*3)
		}
		return b
	}
	for _, size := range []int{0, 48, 1024} {
		// got[node][publisher] lists the payloads node received, copied
		// out of the borrowed slice as the contract asks.
		got := make([]map[micropacket.NodeID][][]byte, len(c.Nodes))
		for node := range c.Nodes {
			got[node] = map[micropacket.NodeID][][]byte{}
			c.Services[node].Sub.Subscribe(topic, func(src micropacket.NodeID, data []byte) {
				if len(data) == size { // earlier sizes' subscriptions stay registered
					got[node][src] = append(got[node][src], bytes.Clone(data))
				}
			})
		}
		for round := 0; round < rounds; round++ {
			for _, pub := range publishers {
				buf := message(pub, round, size)
				c.Services[pub].Sub.Publish(topic, buf)
				for i := range buf {
					buf[i] = 0xEE
				}
			}
			// Shorter than a 1 KiB message's 17 segments take to leave:
			// the next round queues behind this one on both publishers.
			mustRun(t, c, 5*sim.Microsecond)
		}
		mustRun(t, c, 2*sim.Millisecond)
		for node := range c.Nodes {
			for _, pub := range publishers {
				msgs := got[node][micropacket.NodeID(pub)]
				if len(msgs) != rounds {
					t.Fatalf("%d-byte messages: node %d received %d of publisher %d's %d", size, node, len(msgs), pub, rounds)
				}
				for round, m := range msgs {
					if !bytes.Equal(m, message(pub, round, size)) {
						t.Fatalf("%d-byte messages: node %d, publisher %d, message %d: %s", size, node, pub, round, firstDiff(m, message(pub, round, size)))
					}
				}
			}
		}
	}
}

func firstDiff(got, want []byte) string {
	for i := range want {
		if got[i] != want[i] {
			return fmt.Sprintf("byte %d is %#02x, published %#02x", i, got[i], want[i])
		}
	}
	return "equal"
}

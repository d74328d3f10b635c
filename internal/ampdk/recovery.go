package ampdk

import (
	"repro/internal/micropacket"
	"repro/internal/sim"
)

// Smart data recovery (paper, slide 18: "Smart Data Recovery is
// supported by Cache Refresh; Cached Database reflects new
// configuration").
//
// Frames destroyed by a failure (cut fiber, roster transition) show up
// at receivers as DMA sequence gaps. A node that detects gaps on the
// cache channel after a heal asks the sponsor (lowest online node) for
// a region refresh; the sponsor streams the region exactly as it does
// during assimilation.
//
// Consistency note: the Lamport counters keep every record readable as
// a whole (never torn), but a record whose writer is actively updating
// it during the refresh may briefly revert to the snapshot value until
// the writer's next update lands. Records written under netsem locks
// (the paper's rule, slide 10) and DoubleBuffer checkpoint cells (which
// compare versions on read) are unaffected in the ways applications
// observe: the recovered value is always one the writer committed.

// TagRefreshReq asks the sponsor to re-stream one cache region.
const TagRefreshReq uint8 = 0x06

// RequestRefresh asks the current sponsor to re-stream region's
// contents to this node. It is a no-op if this node is the sponsor
// itself (its replica is authoritative by construction of the request).
func (n *Node) RequestRefresh(region uint8) {
	sponsor := n.sponsorID()
	if sponsor == n.Cfg.ID {
		return
	}
	var pl [8]byte
	pl[0] = region
	n.Station.Send(micropacket.NewData(micropacket.NodeID(n.Cfg.ID), micropacket.NodeID(sponsor), TagRefreshReq, pl[:]))
	n.RefreshReqs++
}

// sponsorID returns the lowest online node this node knows of
// (including itself).
func (n *Node) sponsorID() int {
	if n.Online() && n.lowerOnline == 0 {
		return n.Cfg.ID
	}
	for id := range n.peers {
		if n.peers[id].Online {
			return id // ascending: the first online id is the lowest
		}
	}
	return n.Cfg.ID
}

// handleRefreshReq streams one region to the requester.
func (n *Node) handleRefreshReq(p *micropacket.Packet) {
	if n.State != StateOnline {
		return
	}
	region := p.Payload[0]
	buf := n.Cache.Region(region)
	if buf == nil {
		return
	}
	n.RefreshServed++
	n.DMA.Write(RefreshChannel, p.Src, region, 0, buf, nil)
}

// EnableAutoRecovery arms a periodic check: whenever new DMA gaps have
// been observed on this node (frames lost to a failure), every cache
// region is re-requested from the sponsor. interval controls the check
// pace; the paper's story is that recovery follows rostering
// automatically. The check is the node's recovery Timer, made on the
// first call: halt cancels it, Boot re-arms it, and a later call re-arms
// it at the new pace.
func (n *Node) EnableAutoRecovery(interval sim.Time) {
	if interval <= 0 {
		interval = 5 * sim.Millisecond
	}
	if n.recoverEvery == 0 {
		n.recovery = n.K.NewTimer(n.autoRecover)
	}
	n.recoverEvery = interval
	n.recovery.Reset(interval)
}

// autoRecover is one auto-recovery check.
func (n *Node) autoRecover() {
	if n.State == StateOnline && n.DMA.Gaps > n.recoverSeen {
		n.recoverSeen = n.DMA.Gaps
		for _, region := range n.Cache.Regions() {
			n.RequestRefresh(region)
		}
		n.AutoRecoveries++
	}
	n.recovery.Reset(n.recoverEvery)
}

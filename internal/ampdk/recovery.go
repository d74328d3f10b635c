package ampdk

import (
	"repro/internal/micropacket"
	"repro/internal/sim"
)

// Smart data recovery (paper, slide 18: "Smart Data Recovery is
// supported by Cache Refresh; Cached Database reflects new
// configuration").
//
// Cache updates are DMA broadcasts, so those destroyed by a failure
// (cut fiber, roster transition, bit errors) show up at receivers as
// DMA sequence gaps. A node that detects gaps after a heal asks the
// sponsor (lowest online node) for a region refresh; the sponsor
// streams its snapshot of the region exactly as it does during
// assimilation. A refresh is unicast, so a segment of it lost on the
// way is noticed by bytes, not by a gap (checkRefresh).
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
	if sponsor := n.sponsorID(); sponsor != n.Cfg.ID {
		n.requestRefreshFrom(micropacket.NodeID(sponsor), region)
	}
}

// requestRefreshFrom asks sponsor to re-stream region to this node.
func (n *Node) requestRefreshFrom(sponsor micropacket.NodeID, region uint8) {
	var pl [8]byte
	pl[0] = region
	n.Station.Send(micropacket.NewData(micropacket.NodeID(n.Cfg.ID), sponsor, TagRefreshReq, pl[:]))
	n.RefreshReqs++
}

// checkRefresh runs at the joiner's second heartbeat, one heartbeat
// interval after the JoinOK that ended its assimilation. The refresh
// stream is unicast, and the DMA layer checks sequence on broadcasts
// alone, so a refresh segment lost on the way shows as no gap; the
// joiner notices it by bytes instead. Fewer bytes received since boot
// than the sponsor said it streamed asks the sponsor for every region
// again. The interval lets through segments JoinOK overtook across a
// ring transition, which arrive right behind it.
func (n *Node) checkRefresh() {
	want := uint64(n.refreshWant)
	n.refreshWant = 0
	if n.refreshGot >= want {
		return
	}
	for _, region := range n.Cache.Regions() {
		n.requestRefreshFrom(n.refreshFrom, region)
	}
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
	snap := n.Cache.Snapshot(region)
	if snap == nil {
		return
	}
	n.RefreshServed++
	n.DMA.WriteShared(RefreshChannel, p.Src, region, 0, snap, nil)
}

// EnableAutoRecovery arms a periodic check: whenever new DMA gaps have
// been observed on this node's CacheChannel (cache writes lost to a
// failure), every cache region is re-requested from the sponsor. A gap
// on another broadcast channel, such as AmpSubscribe's, lost no cache
// write and starts no refresh. interval controls the check
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
	if gaps := n.DMA.ChannelGaps(CacheChannel); n.State == StateOnline && gaps > n.recoverSeen {
		n.recoverSeen = gaps
		for _, region := range n.Cache.Regions() {
			n.RequestRefresh(region)
		}
		n.AutoRecoveries++
	}
	n.recovery.Reset(n.recoverEvery)
}

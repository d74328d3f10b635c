package ampdk

import (
	"encoding/binary"

	"repro/internal/micropacket"
	"repro/internal/netcache"
	"repro/internal/rostering"
	"repro/internal/sim"
)

// Ring certification (paper, slide 18): "Built-in diagnostics certify
// new configuration; Cached Database reflects new configuration."
//
// After every roster adoption each node sends a certification probe — a
// Diagnostic MicroPacket carrying the new epoch — to its downstream
// ring neighbor and waits for the echoed reply. A reply proves the
// node's hop of the new ring carries traffic end to end (its egress,
// the programmed crossbar route, the neighbor's receive path and the
// return path). If the probe times out, the configuration is not
// certified and rostering is retriggered. Once certified, the lowest
// node on the roster records the new configuration in the replicated
// configuration database.

// Diagnostic codes for certification probes.
const (
	diagCertPing = 0xC0
	diagCertPong = 0xC1
)

// rosterRec is the "current configuration" record in the config DB:
// {epoch(4), ringSize(2), certifierID(2)}. Ring size and certifier id
// are two bytes each, matching the MicroPacket address width.
var rosterRec = netcache.Record{Region: ConfigRegion, Off: 64, Size: 8}

// RingConfig is the decoded current-configuration record.
type RingConfig struct {
	Epoch     uint32
	RingSize  int
	Certifier int
}

// ReadRingConfig decodes the configuration record from the local
// replica; ok=false if it was never written.
func (n *Node) ReadRingConfig() (RingConfig, bool) {
	d, okRead := n.Cache.TryRead(rosterRec)
	if !okRead || n.Cache.Version(rosterRec) == 0 {
		return RingConfig{}, false
	}
	return RingConfig{
		Epoch:     binary.LittleEndian.Uint32(d[0:4]),
		RingSize:  int(binary.LittleEndian.Uint16(d[4:6])),
		Certifier: int(binary.LittleEndian.Uint16(d[6:8])),
	}, true
}

// Certified reports whether this node's hop of the current roster
// passed its certification probe.
func (n *Node) Certified() bool { return n.certEpoch == n.Agent.Epoch() && n.certOK }

// onRosterAdopted runs the slide-18 sequence for a newly adopted
// roster.
func (n *Node) onRosterAdopted(r *rostering.Roster) {
	if n.OnRoster != nil {
		n.OnRoster(r)
	}
	n.certOK = false
	n.certEpoch = r.Epoch
	next, _, ok := r.Next(n.Cfg.ID)
	if !ok {
		// Singleton or off-ring: nothing to certify, and nothing of an
		// older round left to wait for.
		n.certOK = r.Size() <= 1 && r.Contains(n.Cfg.ID)
		n.certTimer.Cancel()
		return
	}
	// Probe the downstream hop with the epoch embedded.
	probe := n.Station.Net().Packets.Diagnostic(micropacket.NodeID(n.Cfg.ID), micropacket.NodeID(next), diagCertPing)
	binary.LittleEndian.PutUint32(probe.Payload[0:4], r.Epoch)
	n.sendPooled(probe)
	n.certTimer.Reset(2*n.Agent.SettleWindow + 500*sim.Microsecond)
}

// certTimeout is the certification timer's callback: the probe of
// epoch certEpoch was not answered in time.
func (n *Node) certTimeout() {
	if n.stopped || n.Agent.Epoch() != n.certEpoch {
		return // a newer roster superseded this round
	}
	if !n.certOK {
		// Certification failed: the adopted configuration does not
		// carry traffic. Explore again.
		n.CertFail++
		n.Agent.Trigger()
	}
}

// handleCert processes certification probes and replies.
func (n *Node) handleCert(p *micropacket.Packet) {
	switch p.Tag {
	case diagCertPing:
		reply := n.Station.Net().Packets.Diagnostic(micropacket.NodeID(n.Cfg.ID), p.Src, diagCertPong)
		reply.Payload = p.Payload // echo the epoch
		n.sendPooled(reply)
	case diagCertPong:
		epoch := binary.LittleEndian.Uint32(p.Payload[0:4])
		if epoch != n.certEpoch || n.certOK {
			return
		}
		n.certOK = true
		n.CertOK++
		n.recordConfig()
	}
}

// recordConfig: the lowest node of the certified roster, where the
// ring starts, writes the new configuration into the replicated
// database.
func (n *Node) recordConfig() {
	r := n.Agent.Roster()
	if r == nil || r.Size() == 0 || r.Nodes[0] != n.Cfg.ID {
		return
	}
	if n.State == StateRejected {
		return // a rejected kernel must not manage the database
	}
	// The writer copies what outlives the call, so the record is built
	// in the node's scratch.
	rec := n.certRec[:]
	binary.LittleEndian.PutUint32(rec[0:4], r.Epoch)
	binary.LittleEndian.PutUint16(rec[4:6], uint16(r.Size()))
	binary.LittleEndian.PutUint16(rec[6:8], uint16(n.Cfg.ID))
	// Best effort: a transient refusal is repaired by the next epoch's
	// certification.
	_ = n.CacheW.WriteRecord(rosterRec, rec)
}

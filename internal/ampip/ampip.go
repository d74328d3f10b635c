// Package ampip implements the AmpIP driver of the paper's protocol
// stack (slides 3 and 12): IP-style datagram service encapsulated over
// AmpNet DMA MicroPackets, giving sockets to hosts so that MPI/PVM-
// style middleware can run unchanged over the ring. A small collective
// communication layer (broadcast, barrier, all-reduce, all-to-all) sits
// on top, standing in for the MPI box in slide 12's stack figure.
//
// Addressing: AmpNet node n is IP host n+1 in 10.77.0.0/16 (node 0 →
// 10.77.0.1); the mapping is static, part of the ubiquitous
// configuration database, and spans the full uint16 node id space.
package ampip

import (
	"encoding/binary"
	"fmt"

	"repro/internal/ampdk"
	"repro/internal/dma"
	"repro/internal/micropacket"
)

// IPChannel and IPRegion carry encapsulated datagrams.
const (
	IPChannel = 11
	IPRegion  = 0xD0
)

// Addr is an IPv4 address.
type Addr uint32

// NodeToIP maps an AmpNet node id to its IP address: host part n+1 in
// 10.77.0.0/16, so node 0 is 10.77.0.1 and node 300 is 10.77.1.45.
// Nodes below 255 keep the historical 10.77.0.(n+1) addresses; the
// /16 gives nodes 0..65533 an IP each. Out-of-range ids — negative,
// past 65533 (node 65534 would land on 10.77.255.255, the subnet's
// directed-broadcast address), or the broadcast NodeID — return the
// zero Addr, which IPToNode rejects, rather than silently aliasing.
func NodeToIP(node int) Addr {
	if node < 0 || node > 0xFFFE-1 {
		return 0
	}
	return Addr(10<<24 | 77<<16 | uint32(node+1))
}

// IPToNode inverts NodeToIP; ok is false for foreign addresses and
// the subnet's zero and broadcast hosts.
func IPToNode(a Addr) (int, bool) {
	if a>>16 != (10<<8 | 77) {
		return 0, false
	}
	host := a & 0xFFFF
	if host == 0 || host == 0xFFFF {
		return 0, false
	}
	return int(host) - 1, true
}

// String renders dotted quad.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// Datagram header: srcIP(4) dstIP(4) srcPort(2) dstPort(2) len(2).
const dgHeader = 14

// Handler receives datagrams bound to a port. data is read-only and
// valid until the callback returns; copy to keep.
type Handler func(src Addr, srcPort uint16, data []byte)

// Stack is one node's AmpIP instance.
type Stack struct {
	Node *ampdk.Node
	IP   Addr

	binds map[uint16]Handler // made on the first Bind
	// asm reassembles datagrams per source: indexed by node id and grown
	// on demand.
	asm []dma.Assembly
	// frame is SendTo's scratch: header and body are laid out here, and
	// the DMA engine copies what it keeps.
	frame []byte

	// Sent and Received count datagrams; NoBind counts arrivals with
	// no bound port (dropped, as UDP would).
	Sent     uint64
	Received uint64
	NoBind   uint64
}

// NewStack attaches an IP stack to a node.
func NewStack(n *ampdk.Node) *Stack {
	s := &Stack{
		Node: n,
		IP:   NodeToIP(n.Cfg.ID),
	}
	n.SetRegionHandler(IPRegion, s.handleDMA)
	return s
}

// Bind installs a handler for a local port. Rebinding replaces. The
// slice h receives is valid until the callback returns; copy to keep.
func (s *Stack) Bind(port uint16, h Handler) {
	if s.binds == nil {
		s.binds = map[uint16]Handler{}
	}
	s.binds[port] = h
}

// SendTo transmits a datagram; the caller may reuse data when it
// returns. Delivery is best-effort (UDP semantics); datagrams to this
// node's own address loop back locally.
func (s *Stack) SendTo(dst Addr, dstPort, srcPort uint16, data []byte) error {
	node, ok := IPToNode(dst)
	if !ok {
		return fmt.Errorf("ampip: %v is not an AmpNet address", dst)
	}
	// Taken, not shared: a SendTo re-entered before this one returns —
	// from a looped-back datagram's handler, or a done callback the DMA
	// pump runs — finds no scratch and builds its own.
	frame := s.frame[:0]
	s.frame = nil
	frame = binary.BigEndian.AppendUint32(frame, uint32(s.IP))
	frame = binary.BigEndian.AppendUint32(frame, uint32(dst))
	frame = binary.BigEndian.AppendUint16(frame, srcPort)
	frame = binary.BigEndian.AppendUint16(frame, dstPort)
	frame = binary.BigEndian.AppendUint16(frame, uint16(len(data)))
	frame = append(frame, data...)
	s.Sent++
	if node == s.Node.Cfg.ID {
		s.deliver(frame)
	} else {
		s.Node.DMA.Write(IPChannel, micropacket.NodeID(node), IPRegion, 0, frame, nil)
	}
	s.frame = frame
	return nil
}

func (s *Stack) handleDMA(src micropacket.NodeID, hdr micropacket.DMAHeader, data []byte, last bool) {
	if int(src) >= len(s.asm) {
		s.asm = append(s.asm, make([]dma.Assembly, int(src)+1-len(s.asm))...)
	}
	if frame, ok := s.asm[src].Add(int(hdr.Offset), data, last); ok {
		s.deliver(frame)
	}
}

func (s *Stack) deliver(frame []byte) {
	if len(frame) < dgHeader {
		return
	}
	srcIP := Addr(binary.BigEndian.Uint32(frame[0:4]))
	srcPort := binary.BigEndian.Uint16(frame[8:10])
	dstPort := binary.BigEndian.Uint16(frame[10:12])
	n := int(binary.BigEndian.Uint16(frame[12:14]))
	payload := frame[dgHeader:]
	if n > len(payload) {
		return // truncated
	}
	payload = payload[:n]
	h, ok := s.binds[dstPort]
	if !ok {
		s.NoBind++
		return
	}
	s.Received++
	h(srcIP, srcPort, payload)
}

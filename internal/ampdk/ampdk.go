// Package ampdk implements the AmpNet Distributed Kernel (paper, slides
// 17–18): the per-node micro-kernel that self-boots, enforces
// assimilation rules and version compatibility before a node comes
// online, keeps the replicated configuration database, exchanges
// heartbeats for millisecond failure detection, and wires together the
// node's MAC station, rostering agent, DMA engine, network cache and
// semaphore service.
//
//	"Every node is a real-time Micro Computer, managed by AmpNet
//	 Distributed Kernel (AmpDK). Instantly Self-Boots — Doesn't need a
//	 Host. Conforms to assimilation rules before coming online.
//	 Enforces version compatibilities across the network." (slide 17)
//
// Assimilation (slides 2, 17, 18): a booting node floods a join request
// on the ring. The sponsor — the lowest-id online node — checks version
// compatibility (equal major version), streams a full cache refresh
// over a dedicated DMA channel, and marks the join complete; only then
// does the node go online and start heartbeating. While assimilating,
// the joiner buffers live cache updates and replays them after the
// refresh so no write is lost. If nothing is heard at all (first boot
// of the cluster), the lowest-id booting node founds the network and
// creates "the first network database … containing all the information
// required to operate the network" (slide 2).
package ampdk

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/detmap"
	"repro/internal/dma"
	"repro/internal/insertion"
	"repro/internal/micropacket"
	"repro/internal/netcache"
	"repro/internal/netsem"
	"repro/internal/phys"
	"repro/internal/rostering"
	"repro/internal/sim"
)

// State is a node's assimilation state (slide 17 lifecycle).
type State uint8

// Node lifecycle states.
const (
	StateOffline State = iota
	StateAssimilating
	StateOnline
	StateRejected // version incompatible: refused assimilation
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateOffline:
		return "offline"
	case StateAssimilating:
		return "assimilating"
	case StateOnline:
		return "online"
	case StateRejected:
		return "rejected"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Message tags on Data MicroPackets used by the kernel. Application
// tags must be >= TagApp.
const (
	TagHeartbeat uint8 = 0x01
	TagJoinReq   uint8 = 0x02
	TagJoinOK    uint8 = 0x03 // sponsor → joiner: refresh complete
	TagJoinRej   uint8 = 0x04 // sponsor → joiner: version incompatible
	TagApp       uint8 = 0x10
)

// Version is a kernel/software version; the high byte is the major
// version, which must match for assimilation (slide 17: "enforces
// version compatibilities across the network").
type Version uint16

// Major returns the major (compatibility) component.
func (v Version) Major() uint8 { return uint8(v >> 8) }

// Compatible reports whether two versions may share a network.
func Compatible(a, b Version) bool { return a.Major() == b.Major() }

// Reserved cache layout: region 0 is the configuration database.
const (
	ConfigRegion     uint8 = 0
	ConfigRegionSize       = 4096
	// CacheChannel carries replicated cache writes; RefreshChannel
	// carries assimilation refresh streams.
	CacheChannel   = 15
	RefreshChannel = 14
)

// missedBeats is how many consecutive heartbeat intervals of silence
// declare a peer down.
const missedBeats = 3

// Config parameterizes a node.
type Config struct {
	ID      int
	Version Version
	// Regions lists additional cache regions (id → size). Region 0 is
	// always present (the configuration database).
	Regions map[uint8]int

	// HeartbeatInterval sets failure detection: a peer is declared down
	// after missedBeats consecutive intervals of silence. The default
	// gives sub-millisecond detection (slide 19: "millisecond
	// application failure detection").
	HeartbeatInterval sim.Time

	// JoinTimeout is how long a booting node solicits sponsors before
	// concluding it is the first node up.
	JoinTimeout sim.Time
}

func (c *Config) fill() {
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 250 * sim.Microsecond
	}
	if c.JoinTimeout == 0 {
		c.JoinTimeout = 2 * sim.Millisecond
	}
	if c.Version == 0 {
		c.Version = 0x0100
	}
}

// Peer is what a node knows about another node: a snapshot of its row
// of the node's peer table.
type Peer struct {
	ID      int
	Version Version
	LastHB  sim.Time
	Online  bool
}

// peerRow is one row of a node's peer table, 16 bytes on a 64-bit host;
// its index is the peer's id. known marks the ids the node has heard
// from (a heartbeat or a join request).
type peerRow struct {
	LastHB  sim.Time
	Version Version
	Online  bool
	known   bool
}

// Node is one AmpNet node: NIC model plus distributed kernel.
type Node struct {
	Cfg     Config
	K       *sim.Kernel
	Cluster *phys.Cluster

	Station *insertion.Station
	Agent   *rostering.Agent
	DMA     *dma.Engine
	Cache   *netcache.Cache
	CacheW  *netcache.Writer
	Sem     *netsem.Service

	// State is the assimilation state.
	State State

	// OnMessage receives application Data MicroPackets (tag >= TagApp).
	OnMessage func(src micropacket.NodeID, tag uint8, payload [8]byte)
	// OnInterrupt receives Interrupt MicroPackets.
	OnInterrupt func(src micropacket.NodeID, vector uint8)
	// OnPeerDown/OnPeerUp fire on heartbeat-driven liveness changes.
	OnPeerDown func(id int)
	OnPeerUp   func(id int)
	// OnOnline fires when this node completes assimilation.
	OnOnline func()
	// OnRoster fires when this node adopts a roster (before the
	// certification probe is sent).
	OnRoster func(*rostering.Roster)
	// handlers are the (region, handler) pairs SetRegionHandler
	// registered, in registration order: a region with one is app
	// memory, every other region applies to the cache replica. Every
	// arriving DMA packet scans them. handlerBuf holds the first few
	// inline, and a longer list spills to the heap.
	handlers   []regionHandler
	handlerBuf [3]regionHandler

	// peers is indexed by node id: the ids of a fabric are 0..NumNodes-1,
	// fixed by the ubiquitous configuration database (slide 2), so the
	// table is dense and walking it is walking ids in ascending order.
	// lowerOnline counts the online peers with an id below this node's —
	// whether somebody else is the sponsor.
	peers       []peerRow
	lowerOnline int
	// Each periodic activity owns one Timer, held by value, made unarmed
	// by NewNode, re-armed with Reset, cancelled by halt. recovery, made
	// by EnableAutoRecovery, ticks every recoverEvery (0 until then).
	heartbeat    sim.Timer
	detect       sim.Timer
	joinRetry    sim.Timer
	certTimer    sim.Timer
	recovery     sim.Timer
	recoverEvery sim.Time
	recoverSeen  uint64 // CacheChannel gaps the last recovery round answered
	// aborts is what halt calls after cancelling the node's own timers
	// and semaphore service: the Abort of each service built over the
	// node, in registration order (RegisterAbort). The node's own are
	// not entries, because a method value is an allocation per node.
	aborts []func()

	sponsoring map[int]bool // joiners whose refresh stream is in flight; made on first write
	hbSeq      uint32
	stopped    bool
	joinTry    int
	sawPeers   bool // heard any heartbeat during join window

	// Assimilation buffering of live updates: buffered holds each
	// write's place, and bufBytes their payloads, one after another.
	buffering bool
	buffered  []bufferedWrite
	bufBytes  []byte

	// Outstanding ping callbacks, FIFO (see Ping for when order holds).
	pingCBs []func()

	// Counters.
	HBSent     uint64
	HBSeen     uint64
	Sponsored  uint64 // refresh streams served as sponsor
	Rejections uint64 // joins rejected for version mismatch
	RefreshedB uint64 // refresh bytes received while assimilating
	// The refresh check (checkRefresh): refreshGot counts the refresh
	// bytes applied since boot, in any state; refreshWant is what the
	// sponsor refreshFrom said it streamed, 0 once checked.
	refreshGot  uint64
	refreshWant uint32
	refreshFrom micropacket.NodeID

	// Smart-recovery counters (recovery.go).
	RefreshReqs    uint64 // region refreshes requested after gaps
	RefreshServed  uint64 // region refreshes served to peers
	AutoRecoveries uint64 // auto-recovery rounds triggered

	// Certification state and counters (certify.go). certTimer waits
	// on the probe of certEpoch; certRec is recordConfig's scratch.
	certEpoch uint32
	certOK    bool
	certRec   [8]byte
	CertOK    uint64 // configurations certified by this node
	CertFail  uint64 // certification timeouts (re-rostered)
}

// regionHandler is one registered app-memory region.
type regionHandler struct {
	region uint8
	h      dma.WriteHandler
}

// bufferedWrite is one cache write held back during assimilation; its
// size bytes follow the previous write's in bufBytes.
type bufferedWrite struct {
	region uint8
	off    uint32
	size   uint32
}

// NewNode builds a node over the cluster's ports. It does not boot it;
// call Boot.
func NewNode(k *sim.Kernel, cluster *phys.Cluster, cfg Config) *Node {
	cfg.fill()
	n := &Node{
		Cfg: cfg, K: k, Cluster: cluster,
		peers: make([]peerRow, cluster.NumNodes()),
	}
	n.handlers = n.handlerBuf[:0]
	n.Station = insertion.NewStation(k, micropacket.NodeID(cfg.ID), cluster.NodePorts[cfg.ID])
	// The hop budget tracks the fabric size: a broadcast must survive a
	// full tour of the largest possible ring (the seed's uint8 budget
	// silently expired broadcasts past 255 nodes).
	n.Station.MaxHops = insertion.MaxHopsFor(cluster.NumNodes())
	n.Agent = rostering.NewAgent(k, cfg.ID, cluster, n.Station, cluster.Topo.FiberM)
	n.DMA = dma.NewEngine(k, n.Station)
	n.Cache = netcache.New()
	n.Cache.AddRegion(ConfigRegion, ConfigRegionSize)
	for _, id := range detmap.SortedKeys(cfg.Regions) {
		n.Cache.AddRegion(id, cfg.Regions[id])
	}
	n.CacheW = netcache.NewWriter(n.Cache, dma.CacheTransport{E: n.DMA, Ch: CacheChannel})
	n.Sem = netsem.NewService(k, n.Station, n.semHome)
	n.Station.OnDeliver = n.deliver
	n.DMA.OnWrite = n.dmaWrite
	n.Agent.OnAdopt = n.onRosterAdopted
	n.heartbeat = k.NewTimer(n.heartbeatLoop)
	n.detect = k.NewTimer(n.detectLoop)
	n.joinRetry = k.NewTimer(n.solicitAgain)
	n.certTimer = k.NewTimer(n.certTimeout)
	return n
}

// RegisterAbort adds abort to what a crash or an application failure
// ends: halt calls the registered aborts in registration order. A
// service built over the node registers, in its constructor, the method
// that cancels its timers and drops its pending operations, so nothing
// of a dead incarnation retries or calls back after the node stops.
func (n *Node) RegisterAbort(abort func()) { n.aborts = append(n.aborts, abort) }

// semHome elects the semaphore home: the lowest node on the current
// roster, where every ring starts (every node computes the same roster,
// so this is consistent).
func (n *Node) semHome() micropacket.NodeID {
	r := n.Agent.Roster()
	if r == nil || r.Size() == 0 {
		return micropacket.NodeID(n.Cfg.ID)
	}
	return micropacket.NodeID(r.Nodes[0])
}

// Boot self-boots the node (slide 17): the rostering agent starts
// (hardware joins the ring), then the kernel seeks assimilation.
func (n *Node) Boot() {
	n.stopped = false
	n.State = StateAssimilating
	n.buffering = true
	n.buffered, n.bufBytes = n.buffered[:0], n.bufBytes[:0]
	n.sawPeers = false
	n.joinTry = 0
	n.refreshGot, n.refreshWant = 0, 0
	n.DMA.ForgetSources()
	n.Agent.Start()
	n.solicit()
	n.detectLoop()
	if n.recoverEvery != 0 {
		n.recovery.Reset(n.recoverEvery)
	}
}

// Online reports whether the node completed assimilation.
func (n *Node) Online() bool { return n.State == StateOnline }

// peer returns id's row of the peer table. Ids are below NumNodes; the
// table grows rather than trust a frame's claim to that.
func (n *Node) peer(id int) *peerRow {
	if id >= len(n.peers) {
		n.peers = append(n.peers, make([]peerRow, id+1-len(n.peers))...)
	}
	return &n.peers[id]
}

// setOnline flips peer id's liveness verdict.
func (n *Node) setOnline(id int, online bool) {
	p := &n.peers[id]
	if p.Online == online {
		return
	}
	p.Online = online
	if id < n.Cfg.ID {
		if online {
			n.lowerOnline++
		} else {
			n.lowerOnline--
		}
	}
}

// Peers returns a snapshot of known peers, in ascending id order.
func (n *Node) Peers() []Peer {
	out := make([]Peer, 0, len(n.peers))
	for id, p := range n.peers {
		if p.known {
			out = append(out, Peer{ID: id, Version: p.Version, LastHB: p.LastHB, Online: p.Online})
		}
	}
	return out
}

// OnlinePeerIDs returns ids of peers currently believed online,
// including this node if online. The result is not sorted — this
// node's own id leads — but its order is deterministic.
func (n *Node) OnlinePeerIDs() []int {
	var out []int
	if n.Online() {
		out = append(out, n.Cfg.ID)
	}
	for id := range n.peers {
		if n.peers[id].Online {
			out = append(out, id)
		}
	}
	return out
}

// Crash kills the node entirely: kernel stops, the DMA engine and the
// MAC lose what they had queued and all its fibers go dark (NIC death).
// Peers heal via rostering and heartbeat timeout.
func (n *Node) Crash() {
	n.halt()
	n.DMA.Abort()
	n.Station.Abort()
	n.Agent.Stop()
	n.Cluster.FailNode(n.Cfg.ID)
}

// halt stops the kernel: offline, no periodic activity left queued to
// carry on beside the chains a later Boot starts, and no operation of
// this incarnation, the node's or a registered service's, left to retry
// or call back.
func (n *Node) halt() {
	n.stopped = true
	n.State = StateOffline
	n.heartbeat.Cancel()
	n.detect.Cancel()
	n.joinRetry.Cancel()
	n.certTimer.Cancel()
	n.recovery.Cancel()
	n.Sem.Abort()
	for _, abort := range n.aborts {
		abort()
	}
}

// AppFail models an application/host failure with a healthy NIC: the
// kernel stops heartbeating (so peers fail it over) but the ring keeps
// forwarding — the paper's scenario for application failover with the
// network intact.
func (n *Node) AppFail() { n.halt() }

// Reboot restores fibers (if dark) and boots again.
func (n *Node) Reboot() {
	n.Cluster.RestoreNode(n.Cfg.ID)
	clear(n.peers)
	n.lowerOnline = 0
	n.Boot()
}

// --- join / assimilation ---

// solicit broadcasts a join request and arms the founding timeout.
func (n *Node) solicit() {
	if n.stopped || n.State != StateAssimilating {
		return
	}
	n.joinTry++
	var pl [8]byte
	binary.LittleEndian.PutUint16(pl[0:2], uint16(n.Cfg.Version))
	pl[2] = byte(n.joinTry)
	n.broadcast(TagJoinReq, pl) // may be refused pre-roster; we retry below
	n.joinRetry.Reset(n.retryEvery())
}

// retryEvery is the pace of join requests: a quarter of the founding
// timeout.
func (n *Node) retryEvery() sim.Time {
	if retry := n.Cfg.JoinTimeout / 4; retry > 0 {
		return retry
	}
	return 500 * sim.Microsecond
}

// solicitAgain is the join retry timer's callback: found the network
// once the timeout has passed in silence, solicit again otherwise.
func (n *Node) solicitAgain() {
	if n.stopped || n.State != StateAssimilating {
		return
	}
	if n.joinTry*int(n.retryEvery()) >= int(n.Cfg.JoinTimeout) && !n.sawPeers && n.lowestBooting() {
		n.found()
		return
	}
	n.solicit()
}

// lowestBooting reports whether this node has the lowest id among the
// nodes it has heard booting (including itself) — the founding
// tiebreak when a whole cluster powers on at once.
func (n *Node) lowestBooting() bool {
	for id := range min(n.Cfg.ID, len(n.peers)) {
		if n.peers[id].known {
			return false
		}
	}
	return true
}

// found creates the network: first node online writes the configuration
// database (slide 2: "the first network database created contains all
// the information required to operate the network").
func (n *Node) found() {
	n.goOnline()
	n.writeConfigDB()
}

// goOnline transitions to online and starts heartbeating.
func (n *Node) goOnline() {
	if n.State == StateOnline {
		return
	}
	n.State = StateOnline
	n.buffering = false
	// Replay updates buffered during refresh, in arrival order.
	data := n.bufBytes
	for _, w := range n.buffered {
		n.Cache.Apply(w.region, w.off, data[:w.size])
		data = data[w.size:]
	}
	n.buffered, n.bufBytes = n.buffered[:0], n.bufBytes[:0]
	n.heartbeatLoop()
	if n.OnOnline != nil {
		n.OnOnline()
	}
}

// --- heartbeats & failure detection ---

func (n *Node) heartbeatLoop() {
	if n.stopped || n.State != StateOnline {
		return
	}
	if n.refreshWant != 0 {
		n.checkRefresh()
	}
	n.hbSeq++
	var pl [8]byte
	binary.LittleEndian.PutUint16(pl[0:2], uint16(n.Cfg.Version))
	pl[2] = byte(n.State)
	binary.LittleEndian.PutUint32(pl[3:7], n.hbSeq)
	n.broadcast(TagHeartbeat, pl)
	n.HBSent++
	n.heartbeat.Reset(n.Cfg.HeartbeatInterval)
}

// broadcast offers the station a Data packet for every node, drawn from
// its Net's packet pool.
func (n *Node) broadcast(tag uint8, pl [micropacket.FixedPayload]byte) {
	n.sendPooled(n.Station.Net().Packets.Data(micropacket.NodeID(n.Cfg.ID), micropacket.Broadcast, tag, pl[:]))
}

// sendPooled offers the station a packet drawn from its Net's pool; a
// refused packet goes back.
func (n *Node) sendPooled(pkt *micropacket.Packet) {
	if !n.Station.Send(pkt) {
		n.Station.Net().Packets.Free(pkt)
	}
}

// detectLoop declares peers down after missedBeats silent intervals.
func (n *Node) detectLoop() {
	if n.stopped {
		return
	}
	deadline := missedBeats * n.Cfg.HeartbeatInterval
	now := n.K.Now()
	// Ascending, so OnPeerDown fires in id order when several peers
	// expire in the same interval — the callback schedules failover
	// elections, and any other order here would leak into the Report.
	for id := range n.peers {
		if p := &n.peers[id]; p.Online && now-p.LastHB > deadline {
			n.setOnline(id, false)
			if n.OnPeerDown != nil {
				n.OnPeerDown(id)
			}
		}
	}
	n.detect.Reset(n.Cfg.HeartbeatInterval)
}

// --- delivery demux ---

func (n *Node) deliver(p *micropacket.Packet) {
	switch p.Type {
	case micropacket.TypeDMA:
		n.DMA.HandleDMA(p)
	case micropacket.TypeD64Atomic:
		n.Sem.Handle(p)
	case micropacket.TypeInterrupt:
		if n.OnInterrupt != nil && n.State == StateOnline {
			n.OnInterrupt(p.Src, p.Tag)
		}
	case micropacket.TypeDiagnostic:
		n.handleDiag(p)
	case micropacket.TypeData:
		n.handleData(p)
	}
}

func (n *Node) handleData(p *micropacket.Packet) {
	switch p.Tag {
	case TagHeartbeat:
		n.noteHeartbeat(p)
	case TagJoinReq:
		n.handleJoinReq(p)
	case TagJoinOK:
		if n.State == StateAssimilating {
			n.goOnline()
			n.refreshWant = binary.LittleEndian.Uint32(p.Payload[1:5])
			n.refreshFrom = p.Src
		}
	case TagJoinRej:
		if n.State == StateAssimilating {
			n.State = StateRejected
		}
	case TagRefreshReq:
		n.handleRefreshReq(p)
	default:
		if p.Tag >= TagApp && n.OnMessage != nil && n.State == StateOnline {
			n.OnMessage(p.Src, p.Tag, p.Payload)
		}
	}
}

func (n *Node) noteHeartbeat(p *micropacket.Packet) {
	n.HBSeen++
	n.sawPeers = true
	id := int(p.Src)
	ver := Version(binary.LittleEndian.Uint16(p.Payload[0:2]))
	pe := n.peer(id)
	pe.known = true
	pe.Version = ver
	pe.LastHB = n.K.Now()
	if !pe.Online {
		n.setOnline(id, true)
		if n.OnPeerUp != nil {
			n.OnPeerUp(id)
		}
	}
}

// handleJoinReq: the sponsor (lowest online node) checks compatibility
// and streams the cache refresh.
func (n *Node) handleJoinReq(p *micropacket.Packet) {
	src := int(p.Src)
	if src == n.Cfg.ID {
		return
	}
	// Track booting peers for the founding tiebreak.
	if pe := n.peer(src); !pe.known {
		*pe = peerRow{LastHB: n.K.Now(), known: true}
	}
	if n.State != StateOnline {
		return
	}
	// Only the sponsor — the lowest online node — responds.
	if n.lowerOnline > 0 {
		return
	}
	ver := Version(binary.LittleEndian.Uint16(p.Payload[0:2]))
	if !Compatible(ver, n.Cfg.Version) {
		n.Rejections++
		var pl [8]byte
		binary.LittleEndian.PutUint16(pl[0:2], uint16(n.Cfg.Version))
		n.Station.Send(micropacket.NewData(micropacket.NodeID(n.Cfg.ID), p.Src, TagJoinRej, pl[:]))
		return
	}
	if n.sponsoring[src] {
		return // refresh already streaming; the retry is redundant
	}
	if n.sponsoring == nil {
		n.sponsoring = map[int]bool{}
	}
	n.sponsoring[src] = true
	n.Sponsored++
	n.streamRefresh(p.Src)
}

// streamRefresh sends every cache region's snapshot to the joiner over
// the refresh DMA channel, then the JoinOK marker, which says how many
// bytes the stream held (checkRefresh). The marker is
// queued to the MAC after the final refresh segment has been accepted,
// so on a stable ring it arrives after the stream. Across a ring
// transition it may not: frames already queued on the old egress leave
// by the old switch, and the marker can overtake them (ROADMAP item
// 14(c)).
func (n *Node) streamRefresh(dst micropacket.NodeID) {
	regions := n.Cache.Regions() // ascending: a deterministic stream order
	streamed := 0
	for _, id := range regions {
		streamed += len(n.Cache.Snapshot(id))
	}
	// total is never reassigned, so each callback holds a copy of it;
	// only remaining is a shared variable, made once a stream.
	total, remaining := uint32(streamed), len(regions)
	for _, id := range regions {
		n.DMA.WriteShared(RefreshChannel, dst, id, 0, n.Cache.Snapshot(id), func() {
			remaining--
			if remaining == 0 {
				var pl [8]byte
				pl[0] = byte(len(regions))
				binary.LittleEndian.PutUint32(pl[1:5], total)
				n.Station.Send(micropacket.NewData(micropacket.NodeID(n.Cfg.ID), dst, TagJoinOK, pl[:]))
				// Allow a future re-join (reboot) to refresh again.
				delete(n.sponsoring, int(dst))
			}
		})
	}
}

// SetRegionHandler makes region app memory: DMA writes to it go to h
// instead of the cache replica. Registering a region again replaces
// its handler, and a nil h unregisters it.
func (n *Node) SetRegionHandler(region uint8, h dma.WriteHandler) {
	for i := range n.handlers {
		if n.handlers[i].region != region {
			continue
		}
		if h == nil {
			n.handlers = slices.Delete(n.handlers, i, i+1)
		} else {
			n.handlers[i].h = h
		}
		return
	}
	if h != nil {
		n.handlers = append(n.handlers, regionHandler{region, h})
	}
}

// RegionHandler returns region's registered handler, nil if it has none.
func (n *Node) RegionHandler(region uint8) dma.WriteHandler {
	for _, rh := range n.handlers {
		if rh.region == region {
			return rh.h
		}
	}
	return nil
}

// dmaWrite routes arriving DMA payloads: registered app regions first,
// then the cache replica (with assimilation buffering).
func (n *Node) dmaWrite(src micropacket.NodeID, hdr micropacket.DMAHeader, data []byte, last bool) {
	if h := n.RegionHandler(hdr.Region); h != nil {
		h(src, hdr, data, last)
		return
	}
	if n.buffering && hdr.Channel == CacheChannel {
		if cap(n.buffered) == 0 {
			// A joiner in a booting cluster holds back six writes of
			// 56 bytes in all: one block each, not a doubling series.
			n.buffered, n.bufBytes = make([]bufferedWrite, 0, 8), make([]byte, 0, 64)
		}
		n.buffered = append(n.buffered, bufferedWrite{hdr.Region, hdr.Offset, uint32(len(data))})
		n.bufBytes = append(n.bufBytes, data...)
		return
	}
	if hdr.Channel == RefreshChannel {
		n.refreshGot += uint64(len(data))
		if n.State == StateAssimilating {
			n.RefreshedB += uint64(len(data))
		}
	}
	n.Cache.Apply(hdr.Region, hdr.Offset, data)
}

// --- diagnostics (ping) ---

const (
	diagPing = 0xD0
	diagPong = 0xD1
)

// Ping sends a Diagnostic probe to dst; cb receives the round-trip
// time. Outstanding pings resolve in FIFO order, which matches the
// pongs on a stable ring. Across a ring transition frames already
// queued on the old egress leave by the old switch, so a later pong can
// overtake an earlier one (ROADMAP item 14(c)).
func (n *Node) Ping(dst micropacket.NodeID, cb func(rtt sim.Time)) {
	start := n.K.Now()
	n.pingCBs = append(n.pingCBs, func() { cb(n.K.Now() - start) })
	n.Station.Send(micropacket.NewDiagnostic(micropacket.NodeID(n.Cfg.ID), dst, diagPing))
}

func (n *Node) handleDiag(p *micropacket.Packet) {
	switch p.Tag {
	case diagPing:
		n.Station.Send(micropacket.NewDiagnostic(micropacket.NodeID(n.Cfg.ID), p.Src, diagPong))
	case diagPong:
		if len(n.pingCBs) > 0 {
			cb := n.pingCBs[0]
			n.pingCBs = n.pingCBs[1:]
			cb()
		}
	case diagCertPing, diagCertPong:
		n.handleCert(p)
	}
}

// SendMessage sends an application Data MicroPacket (tag >= TagApp).
func (n *Node) SendMessage(dst micropacket.NodeID, tag uint8, payload []byte) bool {
	if tag < TagApp {
		panic("ampdk: application tags start at TagApp")
	}
	return n.Station.Send(micropacket.NewData(micropacket.NodeID(n.Cfg.ID), dst, tag, payload))
}

// Interrupt raises a doorbell on dst.
func (n *Node) Interrupt(dst micropacket.NodeID, vector uint8) bool {
	return n.Station.Send(micropacket.NewInterrupt(micropacket.NodeID(n.Cfg.ID), dst, vector))
}

// --- configuration database (region 0) ---

// Config DB layout: record 0 holds {magic(1), version(2), nodes(2),
// switches(1), pad}. The node count is two bytes — it tracks the
// MicroPacket address width, so a >255-node fabric's size survives the
// record unaliased.
var configRec = netcache.Record{Region: ConfigRegion, Off: 0, Size: 16}

const configMagic = 0xA3

// writeConfigDB initializes the configuration database (founding node).
func (n *Node) writeConfigDB() {
	var rec [16]byte
	rec[0] = configMagic
	binary.LittleEndian.PutUint16(rec[1:3], uint16(n.Cfg.Version))
	binary.LittleEndian.PutUint16(rec[3:5], uint16(n.Cluster.NumNodes()))
	rec[5] = byte(n.Cluster.NumSwitches())
	if err := n.CacheW.WriteRecord(configRec, rec[:]); err != nil {
		panic(err)
	}
}

// NetworkInfo is the decoded configuration database record.
type NetworkInfo struct {
	Founded  bool
	Version  Version
	Nodes    int
	Switches int
}

// ReadConfigDB decodes the configuration record from the local replica.
func (n *Node) ReadConfigDB() NetworkInfo {
	data, ok := n.Cache.TryRead(configRec)
	if !ok || data[0] != configMagic {
		return NetworkInfo{}
	}
	return NetworkInfo{
		Founded:  true,
		Version:  Version(binary.LittleEndian.Uint16(data[1:3])),
		Nodes:    int(binary.LittleEndian.Uint16(data[3:5])),
		Switches: int(data[5]),
	}
}

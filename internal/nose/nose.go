// Package nose models NOSE, the operating system Gamma is built on (§2):
// processors connected by a token ring, lightweight processes, ports, and a
// reliable sliding-window datagram service.
//
// The cost structure follows the paper's analysis:
//
//   - The 80 Mbit/s Proteon ring itself is "never a bottleneck"; the 4 Mbit/s
//     Unibus path from memory to the network interface is (§5.2.1). Each node
//     therefore has a NIC resource capped at Unibus bandwidth, shared by
//     inbound and outbound traffic, while the ring contributes only transit
//     latency (it is accounted, never contended).
//   - Messages between processes on the same processor are short-circuited by
//     the communications software (§2) and cost only a little CPU.
//   - The sliding-window protocol bounds the packets a sender may have
//     outstanding to one destination; a slow consumer therefore stalls its
//     producers, which is how a saturated NIC pushes back on a disk scan
//     (§5.2.1's explanation of the 10% selection speedup curve).
//
// Every remote delivery — data, end-of-stream, control, bulk transfer — is
// floored at Net.MinLatency after its send instant and crosses shards via
// Shard.Send, so on a partitioned simulation no node can affect another
// sooner than MinLatency ahead. That bound is exactly the conservative
// lookahead the parallel kernel windows run under: the Gamma model derives
// its lookahead from MinLatency and its shards then execute concurrently.
// Window credits return to the sender the same way (one MinLatency hop back),
// and all activity counters are per-node, mutated only from the owning
// node's shard.
//
// When Net.BatchPackets > 1 a single Send may carry several packets' worth
// of tuples (the batched exchange of Rödiger et al.): it consumes one window
// credit and one protocol-CPU charge per packet but crosses the simulation
// as one event, collapsing the per-packet event storm on fast networks.
package nose

import (
	"fmt"

	"gamma/internal/config"
	"gamma/internal/disk"
	"gamma/internal/sim"
	"gamma/internal/trace"
)

// MsgKind distinguishes the three message classes of §2.
type MsgKind int

const (
	// Data is a packet of tuples flowing through a split table.
	Data MsgKind = iota
	// EndOfStream closes one producer's output stream to a port.
	EndOfStream
	// Control is a scheduler/operator control message.
	Control
)

func (k MsgKind) String() string {
	switch k {
	case Data:
		return "data"
	case EndOfStream:
		return "eos"
	default:
		return "control"
	}
}

// Message is a datagram delivered to a Port.
type Message struct {
	From    *Node
	Kind    MsgKind
	Payload any
	// packets is how many wire packets the message occupied (batched
	// exchange coalesces several); 0 means 1. Drives the receiver's
	// protocol CPU charge and the number of window credits returned.
	packets int
	// release returns the sender's window credits; set on remote sends and
	// invoked when the receiver consumes the message.
	release func()
}

// Stats aggregates network activity.
type Stats struct {
	DataPackets int64 // packets that crossed the ring
	LocalMsgs   int64 // messages short-circuited on one node
	CtlMsgs     int64 // inter-node control messages
	RingBytes   int64
}

// Network is the token ring plus every node attached to it.
type Network struct {
	sim   *sim.Sim
	cfg   config.Net
	cpu   config.CPU
	nodes []*Node
	// Fault injection: lossNum/lossDen packets are dropped in transit and
	// recovered by the sliding-window protocol's timeout retransmission.
	// The drop counters themselves live per sender node.
	lossNum, lossDen int
}

// retransmitTimeout is the sliding-window protocol's retransmission timer.
const retransmitTimeout = 50 * sim.Millisecond

// InjectLoss makes every (den/num)-th data packet of each sender vanish in
// transit, deterministically, exercising the NOSE protocol's reliability
// machinery (§2: "reliable, datagram communication services using a multiple
// bit, sliding window protocol"). num 0 disables loss.
func (n *Network) InjectLoss(num, den int) {
	n.lossNum, n.lossDen = num, den
	for _, nd := range n.nodes {
		nd.lossCtr = 0
	}
}

// Retransmits reports how many packets the protocol had to resend, across
// all nodes.
func (n *Network) Retransmits() int64 {
	var total int64
	for _, nd := range n.nodes {
		total += nd.retransmits
	}
	return total
}

// NewNetwork creates an empty ring.
func NewNetwork(s *sim.Sim, cfg config.Net, cpu config.CPU) *Network {
	return &Network{sim: s, cfg: cfg, cpu: cpu}
}

// Sim returns the simulation the network runs on.
func (n *Network) Sim() *sim.Sim { return n.sim }

// Config returns the network cost parameters.
func (n *Network) Config() config.Net { return n.cfg }

// Stats sums the per-node activity counters.
func (n *Network) Stats() Stats {
	var s Stats
	for _, nd := range n.nodes {
		s.DataPackets += nd.stats.DataPackets
		s.LocalMsgs += nd.stats.LocalMsgs
		s.CtlMsgs += nd.stats.CtlMsgs
		s.RingBytes += nd.stats.RingBytes
	}
	return s
}

// Nodes returns all attached nodes in attachment order.
func (n *Network) Nodes() []*Node { return n.nodes }

// RingBusy sums the token-ring transit time charged across all nodes — the
// ring's cumulative busy time for utilization reports. The ring is modeled
// as pure latency (§5.2.1: "never a bottleneck"), so this is accounting,
// not a contended resource.
func (n *Network) RingBusy() sim.Dur {
	var busy sim.Dur
	for _, nd := range n.nodes {
		busy += nd.ringBusy
	}
	return busy
}

// Node is one processor: a CPU, a network interface, and optionally a disk
// drive (§2: 8 of Gamma's 17 processors have disks).
type Node struct {
	ID  int
	net *Network
	// Part is the simulation shard the node's resources and processes are
	// homed on: its own shard on a partitioned simulation (one partition
	// per disk node; diskless processors share their spool node's shard),
	// the default shard otherwise.
	Part *sim.Shard
	CPU  *sim.Resource
	NIC  *sim.Resource
	// Drive is nil on diskless processors.
	Drive *disk.Drive
	// SpoolNode is where this node's temporary files live: itself for
	// disk nodes, an assigned disk node for diskless processors (join
	// overflow resolution spools partitions to temporary files, §6).
	SpoolNode *Node

	// Activity counters, mutated only from this node's shard (the sender
	// owns every counter a send touches), so parallel windows never race.
	stats       Stats
	ringBusy    sim.Dur
	lossCtr     int
	retransmits int64

	failed  bool
	crashes int     // Fail count; a port created in an earlier epoch is dead
	ports   []*Port // ports attached on this node's shard (see Port.attach)
}

// Fail marks the node crashed: every port that has seen traffic is closed
// (queued and future messages are dropped with their window credits
// returned to the senders), ports created earlier that are first touched
// later close on that touch, and ports created later start closed. The
// caller is responsible for killing the node's processes and failing its
// drive; Fail only severs the node from the network. Kernel context on the
// node's own shard. Idempotent.
func (nd *Node) Fail() {
	if nd.failed {
		return
	}
	nd.failed = true
	nd.crashes++
	for _, pt := range nd.ports {
		pt.Close()
	}
}

// Failed reports whether the node has crashed.
func (nd *Node) Failed() bool { return nd.failed }

// Crashes returns how many times the node has failed.
func (nd *Node) Crashes() int { return nd.crashes }

// Recover reattaches a failed node (the rejoin half of a transient outage):
// ports created from now on open normally. Ports closed by the failure stay
// closed — their receivers are gone — and the caller is responsible for
// restarting processes and repairing the drive, mirroring Fail. Idempotent.
func (nd *Node) Recover() { nd.failed = false }

// AddNode attaches a node; diskCfg is used only when withDisk is true. On a
// partitioned simulation every node gets its own shard (the default shard
// stays for machine-global objects), so the node's CPU, NIC, drive, ports,
// and operator processes all live in one partition. Remote deliveries are
// floored at Net.MinLatency, so the partition runs correctly under any
// kernel lookahead up to MinLatency — including truly parallel windows.
func (n *Network) AddNode(withDisk bool, diskCfg config.Disk) *Node {
	part := n.sim.DefaultShard()
	if n.sim.Partitioned() {
		part = n.sim.AddShard()
	}
	return n.addNode(part, withDisk, diskCfg)
}

// AddNodeOn attaches a diskless node homed on an existing node's shard and
// spooling to that node's drive. Colocating a diskless processor with its
// spool node keeps join-overflow spooling (file create/append/read on the
// spool drive) shard-local, which is what lets joins run inside parallel
// windows.
func (n *Network) AddNodeOn(spool *Node) *Node {
	nd := n.addNode(spool.Part, false, config.Disk{})
	nd.SpoolNode = spool
	return nd
}

func (n *Network) addNode(part *sim.Shard, withDisk bool, diskCfg config.Disk) *Node {
	id := len(n.nodes)
	nd := &Node{
		ID:   id,
		net:  n,
		Part: part,
		CPU:  part.NewResource(fmt.Sprintf("cpu%d", id)),
		NIC:  part.NewResource(fmt.Sprintf("nic%d", id)),
	}
	// Every remote effect a node initiates — data packets (Conn.arrival),
	// credit returns, control messages, retries — is floored at MinLatency
	// past its send instant, so the shard can declare that floor to the EOT
	// window scheduler even when the simulation's global lookahead is
	// smaller.
	part.SetOutFloor(n.cfg.MinLatency)
	if withDisk {
		nd.Drive = disk.NewOn(part, fmt.Sprintf("disk%d", id), diskCfg)
		nd.SpoolNode = nd
	}
	n.nodes = append(n.nodes, nd)
	return nd
}

// Network returns the ring the node is attached to.
func (nd *Node) Network() *Network { return nd.net }

// UseCPU charges instr instructions to the node's CPU on behalf of p.
func (nd *Node) UseCPU(p *sim.Proc, instr int) {
	if instr > 0 {
		nd.CPU.Use(p, nd.net.cpu.Time(instr))
	}
}

// dropNext deterministically decides whether this node's next data packet
// is lost in transit.
func (nd *Node) dropNext() bool {
	net := nd.net
	if net.lossNum <= 0 || net.lossDen <= 0 {
		return false
	}
	nd.lossCtr++
	return nd.lossCtr%((net.lossDen+net.lossNum-1)/net.lossNum) == 0
}

// Port is a well-known mailbox on a node. Operator processes receive their
// input streams and control packets through ports.
type Port struct {
	node     *Node
	name     string
	queue    []Message
	recvq    *sim.WaitQ
	closed   bool
	epoch    int  // the node's crash count when the port was created
	attached bool // registered in node.ports (see attach)
}

// NewPort creates a named port on the node. A port created on a failed node
// starts closed. The scheduler creates most ports on other nodes, so the
// port joins its node's registry only when it is first used there (attach).
func (nd *Node) NewPort(name string) *Port {
	return &Port{node: nd, name: name, recvq: nd.Part.NewWaitQ("port:" + name),
		closed: nd.failed, epoch: nd.crashes}
}

// attach registers the port with its node on the first delivery or receive,
// both of which run on the node's own shard, so the registry Fail walks is
// never touched from another shard; attaching on a receive keeps the
// registry close to creation order, the order Fail closes ports in. A port
// that outlived a crash without being attached is closed here, exactly as
// Fail would have closed it.
func (pt *Port) attach() {
	if pt.attached {
		return
	}
	pt.attached = true
	nd := pt.node
	nd.ports = append(nd.ports, pt)
	if pt.epoch != nd.crashes {
		pt.Close()
	}
}

// Close shuts the mailbox: queued messages are discarded and future
// deliveries are dropped, in both cases returning the senders' window
// credits so no producer blocks forever on a dead consumer. The receiver
// must not be parked on the port when it closes (operators close their own
// port on exit; crashed nodes' receivers are killed before their ports
// close). Idempotent.
func (pt *Port) Close() {
	if pt.closed {
		return
	}
	pt.closed = true
	for _, m := range pt.queue {
		if m.release != nil {
			m.release()
		}
	}
	pt.queue = nil
}

// Closed reports whether the port has been closed.
func (pt *Port) Closed() bool { return pt.closed }

// Node returns the port's home node.
func (pt *Port) Node() *Node { return pt.node }

// Name returns the port name.
func (pt *Port) Name() string { return pt.name }

// Pending returns the number of queued, undelivered messages.
func (pt *Port) Pending() int { return len(pt.queue) }

// deliver enqueues m and wakes one waiting receiver. Kernel context, on the
// port's shard. Delivery to a closed port drops the message, immediately
// returning the sender's window credits.
func (pt *Port) deliver(m Message) {
	pt.attach()
	if pt.closed {
		if m.release != nil {
			m.release()
		}
		return
	}
	pt.queue = append(pt.queue, m)
	pt.recvq.WakeOne()
}

// Recv blocks p until a message is available and returns it. Receiving a
// remote data message charges the protocol-processing CPU cost to p, once
// per wire packet the message occupied.
func (pt *Port) Recv(p *sim.Proc) Message {
	pt.attach()
	for len(pt.queue) == 0 {
		pt.recvq.Park(p)
	}
	m := pt.queue[0]
	pt.queue = pt.queue[1:]
	if m.From != nil && m.From != pt.node && m.Kind == Data {
		np := m.packets
		if np < 1 {
			np = 1
		}
		pt.node.UseCPU(p, pt.node.net.cfg.InstrPerPacket*np)
	}
	if m.release != nil {
		m.release()
		m.release = nil
	}
	return m
}

// RecvTimeout is Recv with a deadline: it blocks p until a message arrives
// or d elapses, reporting false on timeout. Used by a failover-armed
// scheduler to detect a dead operator by silence on its inbox.
func (pt *Port) RecvTimeout(p *sim.Proc, d sim.Dur) (Message, bool) {
	sh := pt.node.Part
	deadline := sh.Now() + d
	for len(pt.queue) == 0 {
		if !pt.recvq.ParkTimeout(p, deadline-sh.Now()) && len(pt.queue) == 0 {
			return Message{}, false
		}
	}
	return pt.Recv(p), true
}

// TryRecv returns a queued message without blocking, if one is available.
func (pt *Port) TryRecv(p *sim.Proc) (Message, bool) {
	if len(pt.queue) == 0 {
		return Message{}, false
	}
	return pt.Recv(p), true
}

// Conn is a sender's sliding-window connection to a destination port. Each
// (producer process, destination) pair uses its own Conn.
type Conn struct {
	from    *Node
	to      *Port
	credits int
	waitq   *sim.WaitQ
	// lastArr is the latest arrival scheduled on this connection. The
	// window protocol delivers in order, so a later message never arrives
	// before an earlier one — without this floor a small end-of-stream
	// message could overtake a deep batched data message whose ring
	// transit dominates its arrival time.
	lastArr sim.Time
}

// Dial opens a connection from nd to the port.
func (nd *Node) Dial(to *Port) *Conn {
	w := nd.net.cfg.Window
	if w <= 0 {
		w = 1
	}
	return &Conn{from: nd, to: to, credits: w, waitq: nd.Part.NewWaitQ("win")}
}

// Local reports whether the connection short-circuits (same node).
func (c *Conn) Local() bool { return c.from == c.to.node }

// Send transmits a data message of the given byte size carrying payload.
// Same-node sends short-circuit: a little CPU and immediate delivery.
// Remote sends occupy ceil(bytes/PacketBytes) wire packets: they consume
// that many window credits (blocking while the window lacks them), the
// sender's protocol CPU and NIC, and the ring's transit latency; the
// arrival is floored at MinLatency after the send instant, the receiver's
// NIC is charged on arrival, and the credits return one MinLatency hop
// after the receiver consumes the message.
func (c *Conn) Send(p *sim.Proc, kind MsgKind, payload any, bytes int) {
	net := c.from.net
	if c.Local() {
		c.from.UseCPU(p, net.cfg.InstrPerLocalMsg)
		c.from.stats.LocalMsgs++
		if net.sim.Tracing() {
			p.Emit(trace.Event{
				At: int64(p.Now()), Kind: trace.KindLocalMsg,
				Class: kind.String(), Node: c.from.ID, Bytes: bytes,
			})
		}
		c.to.deliver(Message{From: c.from, Kind: kind, Payload: payload})
		return
	}
	npackets := 1
	if pb := net.cfg.PacketBytes; pb > 0 && bytes > pb {
		npackets = (bytes + pb - 1) / pb
	}
	window := net.cfg.Window
	if window <= 0 {
		window = 1
	}
	if npackets > window {
		panic(fmt.Sprintf("nose: %d-packet message exceeds window %d (batch too deep)", npackets, window))
	}
	for c.credits < npackets {
		c.waitq.Park(p)
	}
	c.credits -= npackets
	c.from.UseCPU(p, net.cfg.InstrPerPacket*npackets)
	t0 := p.Now()
	nicDone := c.from.NIC.UseAsync(net.cfg.NICTime(bytes))
	c.from.stats.DataPackets += int64(npackets)
	c.from.stats.RingBytes += int64(bytes)
	c.from.ringBusy += net.cfg.RingTime(bytes)
	if net.sim.Tracing() {
		e := trace.Event{
			At: int64(t0), Kind: trace.KindPacket,
			Class: kind.String(), From: c.from.ID, To: c.to.node.ID, Bytes: bytes,
		}
		if npackets > 1 {
			e.N = npackets
		}
		p.Emit(e)
	}
	arr := c.arrival(t0, nicDone, bytes)
	release := c.releaseFn(npackets)
	if c.from.dropNext() {
		c.scheduleRetry(arr+retransmitTimeout, kind, payload, bytes, npackets, release)
	} else {
		c.deliverAt(arr, kind, payload, bytes, npackets, release)
	}
	// The sender's process is occupied while its Unibus pushes the message
	// out, exactly as the old blocking NIC charge behaved.
	p.WaitUntil(nicDone)
}

// arrival computes when a message sent at t0 whose sender-NIC copy finishes
// at nicDone reaches the destination node: ring transit after the NIC,
// floored at MinLatency past the send instant, and never before any
// arrival already scheduled on this connection (the channel is FIFO).
func (c *Conn) arrival(t0 sim.Time, nicDone sim.Time, bytes int) sim.Time {
	net := c.from.net
	arr := nicDone + net.cfg.RingTime(bytes)
	if min := t0 + net.cfg.MinLatency; arr < min {
		arr = min
	}
	if arr < c.lastArr {
		arr = c.lastArr
	}
	c.lastArr = arr
	return arr
}

// releaseFn builds the consume callback for a remote message: it runs on
// the receiver's shard and routes the window-credit ACK back to the sender
// one MinLatency hop later.
func (c *Conn) releaseFn(npackets int) func() {
	return func() {
		recv := c.to.node.Part
		recv.Send(c.from.Part, recv.Now()+c.from.net.cfg.MinLatency, func() {
			c.credits += npackets
			c.waitq.WakeOne()
		})
	}
}

// deliverAt schedules the arrival on the receiver's shard: the message
// crosses the receiving Unibus, then lands in the port.
func (c *Conn) deliverAt(arr sim.Time, kind MsgKind, payload any, bytes, npackets int, release func()) {
	net := c.from.net
	to := c.to
	from := c.from
	c.from.Part.Send(to.node.Part, arr, func() {
		nicDone := to.node.NIC.UseAsync(net.cfg.NICTime(bytes))
		to.node.Part.At(nicDone, func() {
			// The credits return only when the receiving process
			// consumes the message (Port.Recv), so a slow consumer
			// stalls its producers once the window fills.
			to.deliver(Message{From: from, Kind: kind, Payload: payload, packets: npackets, release: release})
		})
	})
}

// scheduleRetry resends a dropped message after the protocol's timeout: the
// sender's NIC and the ring are charged again, the resend may itself be
// dropped, and the sender's process is not re-blocked (the window already
// accounts for the unacknowledged packets). Runs on the sender's shard.
func (c *Conn) scheduleRetry(at sim.Time, kind MsgKind, payload any, bytes, npackets int, release func()) {
	net := c.from.net
	c.from.Part.At(at, func() {
		c.from.retransmits++
		if net.sim.Tracing() {
			c.from.Part.Emit(trace.Event{
				At: int64(c.from.Part.Now()), Kind: trace.KindRetransmit,
				From: c.from.ID, To: c.to.node.ID, Bytes: bytes,
			})
		}
		t0 := c.from.Part.Now()
		nicDone := c.from.NIC.UseAsync(net.cfg.NICTime(bytes))
		c.from.stats.RingBytes += int64(bytes)
		c.from.ringBusy += net.cfg.RingTime(bytes)
		arr := c.arrival(t0, nicDone, bytes)
		if c.from.dropNext() {
			c.scheduleRetry(arr+retransmitTimeout, kind, payload, bytes, npackets, release)
			return
		}
		c.deliverAt(arr, kind, payload, bytes, npackets, release)
	})
}

// TransferBulk charges p for moving bytes between two nodes outside the
// port/window machinery (spool-file traffic of diskless processors). It is
// a no-op between a node and itself. The transfer occupies both NICs in
// sequence with ring transit (floored at MinLatency) between them; inside
// parallel windows callers must be shard-colocated with both endpoints
// (diskless nodes are homed on their spool node's shard for this reason).
func (n *Network) TransferBulk(p *sim.Proc, from, to *Node, bytes int) {
	if from == to || from == nil || to == nil {
		return
	}
	t0 := p.Now()
	from.NIC.Use(p, n.cfg.NICTime(bytes))
	from.stats.RingBytes += int64(bytes)
	from.ringBusy += n.cfg.RingTime(bytes)
	arr := p.Now() + n.cfg.RingTime(bytes)
	if min := t0 + n.cfg.MinLatency; arr < min {
		arr = min
	}
	p.WaitUntil(arr)
	to.NIC.Use(p, n.cfg.NICTime(bytes))
}

// SendCtl sends a small control message. An inter-node control message
// costs the sender CtlMsg of CPU time (§6.2.3's 7 ms) — which is what
// serializes a scheduler initiating operators across many nodes, since each
// initiation occupies the scheduler's CPU before the next can start — and
// then crosses the wire with the MinLatency floor like any other remote
// send. The trace event carries the CtlMsg cost in Dur so Diagnose can
// attribute control-plane time (the "ctl" pseudo-class). Same-node control
// messages short-circuit.
func SendCtl(p *sim.Proc, from *Node, to *Port, payload any) {
	net := from.net
	if from == to.node {
		from.UseCPU(p, net.cfg.InstrPerLocalMsg)
		from.stats.LocalMsgs++
		if net.sim.Tracing() {
			p.Emit(trace.Event{
				At: int64(p.Now()), Kind: trace.KindLocalMsg,
				Class: Control.String(), Node: from.ID,
			})
		}
		to.deliver(Message{From: from, Kind: Control, Payload: payload})
		return
	}
	from.CPU.Use(p, net.cfg.CtlMsg)
	from.stats.CtlMsgs++
	if net.sim.Tracing() {
		p.Emit(trace.Event{
			At: int64(p.Now()), Kind: trace.KindCtlMsg,
			From: from.ID, To: to.node.ID, Dur: int64(net.cfg.CtlMsg),
		})
	}
	target := to
	src := from
	from.Part.Send(to.node.Part, p.Now()+net.cfg.MinLatency, func() {
		target.deliver(Message{From: src, Kind: Control, Payload: payload})
	})
}

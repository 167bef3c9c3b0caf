package core

// Machine-level fault tolerance: chained-declustered replicas, failure
// entry points (disk-node crash, single-drive failure, transient NIC
// outage), and the bookkeeping the per-query failover protocol in query.go
// relies on. The scheduling of failures against the simulation clock lives
// one layer up, in internal/fault.

import (
	"fmt"
	"slices"

	"gamma/internal/disk"
	"gamma/internal/nose"
	"gamma/internal/sim"
	"gamma/internal/trace"
)

// DefaultFailoverDetect is the scheduler's operator-silence timeout when
// EnableFailover is given no explicit value. It is large against per-packet
// latencies (so quiet phases of a healthy run never look dead) but small
// against query response times, keeping the detection share of degraded
// response time bounded.
const DefaultFailoverDetect = 250 * sim.Millisecond

// EnableMirroring makes every subsequent Load build chained-declustered
// backup fragments: disk node i holds the primary of fragment i and the
// backup of fragment i-1 (the follow-on Gamma availability design). Must be
// called before the relations that should survive a failure are loaded.
func (m *Machine) EnableMirroring() { m.mirrored = true }

// Mirrored reports whether loads build chained-declustered backups.
func (m *Machine) Mirrored() bool { return m.mirrored }

// EnableFailover arms mid-query failure handling: the scheduler's inbox
// waits time out after detect of silence, newly failed sites abort the
// running attempt (partial results are dropped), and the work is
// re-dispatched against backup fragments. detect <= 0 selects
// DefaultFailoverDetect. Failover needs EnableMirroring to have something
// to re-dispatch to. Failover reads every site's health from the scheduler,
// so it pins the simulation to one worker (sim.Sim.Pin).
func (m *Machine) EnableFailover(detect sim.Dur) {
	if detect <= 0 {
		detect = DefaultFailoverDetect
	}
	m.ftDetect = detect
	m.Sim.Pin()
}

// CrashDisk fails disk site (index into m.Disk) completely: its operator
// processes are killed, its ports closed (returning senders' window
// credits), its drive failed, and any diskless processor spooling to it is
// re-assigned to a surviving drive. Idempotent. Kernel context on the
// site's own shard (fault.Arm schedules it there), or between queries.
func (m *Machine) CrashDisk(site int) {
	nd := m.Disk[site]
	if nd.Failed() {
		return
	}
	nd.Part.Emit(trace.Event{
		At: int64(nd.Part.Now()), Kind: trace.KindFault, Class: "node-crash",
		Node: nd.ID, Site: site,
	})
	for _, e := range m.procs[nd.ID] {
		e.p.Kill()
	}
	m.procs[nd.ID] = nil
	nd.Fail()
	nd.Drive.Fail()
	m.reassignSpools()
	m.tellHealer(nd, func(h *Healer, at sim.Time) { h.noteFault(site, at) })
}

// FailDrive fails only the drive of disk site: the processor stays up, so
// in-flight accesses raise disk.FailedError, the operator reports the loss,
// and detection is immediate rather than timeout-driven. Idempotent. Same
// context as CrashDisk.
func (m *Machine) FailDrive(site int) {
	nd := m.Disk[site]
	if nd.Drive.Failed() {
		return
	}
	nd.Part.Emit(trace.Event{
		At: int64(nd.Part.Now()), Kind: trace.KindFault, Class: "drive-fail",
		Node: nd.ID, Site: site,
	})
	nd.Drive.Fail()
	m.reassignSpools()
	m.tellHealer(nd, func(h *Healer, at sim.Time) { h.noteFault(site, at) })
}

// tellHealer delivers a note about an event on nd to the healer on the
// host: like every effect one node has on another, it is a message that
// arrives one Net.MinLatency later. at is the event's own instant.
func (m *Machine) tellHealer(nd *nose.Node, note func(h *Healer, at sim.Time)) {
	h := m.healer
	if h == nil {
		return
	}
	at := nd.Part.Now()
	nd.Part.Send(m.Host.Part, at+m.Prm.Net.MinLatency, func() { note(h, at) })
}

// NICOutage blocks a node's network interface for d, modeling a transient
// interface fault: traffic queues behind the outage and drains afterwards.
// No failover is involved — the sliding-window protocol simply stalls — and
// it composes with Network.InjectLoss packet drops. node is a node ID (any
// processor, not just disk sites). Kernel context on the node's own shard.
func (m *Machine) NICOutage(node int, d sim.Dur) {
	nd := m.Net.Nodes()[node]
	now := nd.Part.Now()
	nd.Part.Emit(trace.Event{
		At: int64(now), Kind: trace.KindFault, Class: "nic-outage",
		Node: nd.ID, End: int64(now + d),
	})
	nd.NIC.UseAsync(d)
}

// OutageDisk takes disk site down exactly like CrashDisk, then schedules its
// rejoin d later: a transient power/partition outage rather than a permanent
// loss. The node comes back cold (empty buffer pool, unknown arm position)
// and immediately eligible as a re-replication target.
func (m *Machine) OutageDisk(site int, d sim.Dur) {
	m.CrashDisk(site)
	sh := m.Disk[site].Part
	sh.At(sh.Now()+d, func() { m.RejoinDisk(site) })
}

// RejoinDisk returns a previously crashed disk site to service: the node and
// drive accept work again, the buffer pool is cold (its contents did not
// survive the outage), and any spool assignment it held before the crash is
// restored. Fragments whose files survived on the drive serve again as soon
// as the directory still points at them; fragments the healer condemned and
// re-replicated elsewhere stay gone — the rejoined node is simply spare
// capacity (and a rebuild target) from here on. Idempotent. Same context as
// CrashDisk.
func (m *Machine) RejoinDisk(site int) {
	nd := m.Disk[site]
	if !nd.Failed() {
		return
	}
	nd.Recover()
	nd.Drive.Repair()
	if st := m.stores[nd.ID]; st != nil {
		st.Pool().Reset()
	}
	nd.SpoolNode = nd
	nd.Part.Emit(trace.Event{
		At: int64(nd.Part.Now()), Kind: trace.KindHeal, Class: "rejoin",
		Node: nd.ID, Site: site,
	})
	if h := m.healer; h != nil && nd.Part.Now() < h.cfg.Horizon {
		h.spawnHeartbeat(site)
	}
	m.tellHealer(nd, func(h *Healer, _ sim.Time) { h.noteRejoin(site) })
}

// reassignSpools points every processor whose spool drive is gone at the
// first surviving drive (join overflow resolution must keep working in
// degraded mode).
func (m *Machine) reassignSpools() {
	var alive *nose.Node
	for _, nd := range m.Disk {
		if m.driveUp(nd) {
			alive = nd
			break
		}
	}
	if alive == nil {
		return // nothing left to spool to; queries will fail loudly
	}
	for _, nd := range m.Net.Nodes() {
		if nd.SpoolNode != nil && !m.driveUp(nd.SpoolNode) {
			nd.SpoolNode = alive
		}
	}
}

// driveUp reports whether a node can serve disk I/O: the node is running
// and its drive works.
func (m *Machine) driveUp(nd *nose.Node) bool {
	return !nd.Failed() && nd.Drive != nil && !nd.Drive.Failed()
}

// ErrUnavailable is the typed error a query returns when it cannot complete:
// some fragment it needs has no readable copy (two adjacent failures, or no
// mirroring), or its failover retries were exhausted. It fails only the
// affected query — the machine and every other query keep running.
type ErrUnavailable struct {
	// Rel and Frag name the unreadable fragment ("" when the failure is
	// retry exhaustion rather than a specific lost fragment).
	Rel  string
	Frag int
	// Attempts is how many attempts the query made before giving up.
	Attempts int
}

func (e *ErrUnavailable) Error() string {
	if e.Rel != "" {
		return fmt.Sprintf("core: fragment %d of %s unavailable (primary down, no live backup)", e.Frag, e.Rel)
	}
	return fmt.Sprintf("core: unavailable after %d failover attempts (more failures than disk sites)", e.Attempts)
}

// liveFrag returns the readable copy of fragment i of r: the primary, or —
// when the primary's node or drive is lost — its chained-declustered backup.
// backup reports that the degraded copy was chosen. When neither copy is
// readable it returns an *ErrUnavailable (data loss for this fragment; the
// query fails, the machine survives).
func (m *Machine) liveFrag(r *Relation, i int) (frag *Fragment, backup bool, err error) {
	fr := r.Frags[i]
	if m.driveUp(fr.Node) {
		return fr, false, nil
	}
	if i < len(r.Backups) {
		if b := r.Backups[i]; b != nil && m.driveUp(b.Node) {
			return b, true, nil
		}
	}
	return nil, false, &ErrUnavailable{Rel: r.Name, Frag: i}
}

// reportDriveLoss is the deferred recovery handler for operators without an
// abort protocol (selections, spool scans): a disk.FailedError raised by a
// failed drive becomes an opFailed report, so the scheduler detects the
// loss immediately instead of waiting out the silence timeout. Any other
// panic — including the kill sentinel of a crashed node — passes through.
func reportDriveLoss(m *Machine, p *sim.Proc, nd *nose.Node, opID string, sched *nose.Port) {
	r := recover()
	if r == nil {
		return
	}
	if _, ok := r.(disk.FailedError); ok && !nd.Failed() {
		nose.SendCtl(p, nd, sched, opFailed{op: opID, node: nd.ID})
		return
	}
	panic(r)
}

// opProc is one entry of a node's kill registry: a live operator process
// and the port of the process that started it (a query's scheduler, the
// healer), so a failed query can abandon exactly its own operators.
type opProc struct {
	p     *sim.Proc
	owner *nose.Port
}

// spawnOn starts an operator process bound to node nd on behalf of owner:
// a crash of nd kills it, abandoning owner kills it, and a process whose
// start reaches nd after nd failed never runs. All operator processes go
// through here so they land in nd's kill registry, which only nd's shard
// touches.
//
// Starting an operator on another node is a network message, exactly like
// the scheduler-initiation control messages it models (§6.2.3): the process
// starts one Net.MinLatency after the send on owner's node, on every
// kernel. A nil owner means nd starts a process of its own, immediately.
func (m *Machine) spawnOn(owner *nose.Port, nd *nose.Node, name string, fn func(p *sim.Proc)) {
	start := func() {
		if nd.Failed() {
			return
		}
		var pr *sim.Proc
		pr = nd.Part.Spawn(name, func(p *sim.Proc) {
			// Deregister on any exit (normal, killed, or panicking).
			defer func() {
				m.procs[nd.ID] = slices.DeleteFunc(m.procs[nd.ID], func(e opProc) bool { return e.p == pr })
			}()
			fn(p)
		})
		m.procs[nd.ID] = append(m.procs[nd.ID], opProc{p: pr, owner: owner})
	}
	if owner == nil {
		start()
		return
	}
	from := owner.Node().Part
	from.Send(nd.Part, from.Now()+m.Prm.Net.MinLatency, start)
}

// abandon kills every operator owner started, on every node: one message
// per node, delivered on the node's own shard one Net.MinLatency later, so
// a start still in flight from owner arrives first and is killed too.
func (m *Machine) abandon(owner *nose.Port) {
	from := owner.Node().Part
	for _, nd := range m.Net.Nodes() {
		nd := nd
		from.Send(nd.Part, from.Now()+m.Prm.Net.MinLatency, func() {
			m.procs[nd.ID] = slices.DeleteFunc(m.procs[nd.ID], func(e opProc) bool {
				if e.owner != owner {
					return false
				}
				e.p.Kill()
				return true
			})
		})
	}
}

package core

import (
	"gamma/internal/nose"
	"gamma/internal/sim"
)

// Recovery implements the log-record collection §8 announces as future work:
// "we intend on implementing a recovery server that will collect log records
// from each processor". When enabled, every operator that mutates permanent
// data ships log records to a dedicated recovery-server processor, which
// appends them to a sequential log volume.
//
// The paper identifies Gamma's missing recovery as one of its two "most
// glaring deficiencies" and notes that its update numbers (Table 3) include
// only partial recovery; the `recovery` benchmark quantifies what the full
// machinery would have cost.
type Recovery struct {
	m      *Machine
	Server *nose.Node
	// buffered bytes per source node, flushed in log-page units.
	pending map[int]int
	logPage int
	// Stats.
	Records  int64
	LogBytes int64
	// Flushes counts every log page shipped to the server; Forces counts
	// the subset that were synchronous commit-point flushes.
	Flushes int64
	Forces  int64
}

// logRecordHeader is the per-record framing overhead.
const logRecordHeader = 16

// EnableRecovery attaches a recovery server on its own processor (with a
// drive for the log volume) and returns it. Operators charge the server's
// CPU and drive directly rather than by message, so recovery pins the
// simulation to one worker (sim.Sim.Pin). Idempotent.
func (m *Machine) EnableRecovery() *Recovery {
	if m.rec != nil {
		return m.rec
	}
	m.Sim.Pin()
	server := m.Net.AddNode(true, m.Prm.Disk)
	m.rec = &Recovery{m: m, Server: server, pending: map[int]int{}}
	return m.rec
}

// RecoveryEnabled reports whether log shipping is active.
func (m *Machine) RecoveryEnabled() bool { return m.rec != nil }

// logRecord ships one log record of the given payload size from node to the
// recovery server. Records are buffered into page-sized batches per source;
// each batch costs a network transfer plus a sequential write on the log
// volume, with the server's CPU charged asynchronously.
func (m *Machine) logRecord(p *sim.Proc, node *nose.Node, payload int) {
	r := m.rec
	if r == nil {
		return
	}
	size := payload + logRecordHeader
	r.Records++
	r.LogBytes += int64(size)
	r.pending[node.ID] += size
	if r.pending[node.ID] < m.Prm.PageBytes {
		return
	}
	r.pending[node.ID] = 0
	r.flush(p, node, false)
}

// flush sends one log page from node to the server. A forced flush (commit
// point) is synchronous — the committing operator waits for the server's CPU
// and the log write; a background flush charges both asynchronously.
func (r *Recovery) flush(p *sim.Proc, node *nose.Node, force bool) {
	m := r.m
	r.Flushes++
	m.Net.TransferBulk(p, node, r.Server, m.Prm.PageBytes)
	if force {
		r.Forces++
		r.Server.UseCPU(p, m.Prm.Engine.InstrPerPageIO)
		r.Server.Drive.Write(p, -7, r.logPage, m.Prm.PageBytes)
	} else {
		r.Server.CPU.UseAsync(m.Prm.CPU.Time(m.Prm.Engine.InstrPerPageIO))
		r.Server.Drive.WriteAsync(-7, r.logPage, m.Prm.PageBytes)
	}
	r.logPage++
}

// logForce flushes any buffered records from node (commit point).
func (m *Machine) logForce(p *sim.Proc, node *nose.Node) {
	r := m.rec
	if r == nil || r.pending[node.ID] == 0 {
		return
	}
	r.pending[node.ID] = 0
	r.flush(p, node, true)
}

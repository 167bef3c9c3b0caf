package main

import (
	"bytes"
	"fmt"
	"time"

	"gamma/internal/core"
	"gamma/internal/nose"
	"gamma/internal/sim"
)

// machineStats are a machine's cumulative counters at the end of a round.
// Everything but windows is an exact simulated statistic and enters the
// digest; windows are the partitioned kernel's scheduling counters.
type machineStats struct {
	now                   sim.Time
	net                   nose.Stats
	ringBusy              sim.Dur
	cowClones             int64
	poolHits, poolMisses  int64
	reads, writes, random int64
	driveBusy             sim.Dur
	drives                int
	nicBusy, nicWait      sim.Dur
	nodes                 int
	schedBusy             sim.Dur
	windows               sim.WindowStats
}

// readMachine reads the machine's counters and writes the exact ones to a
// round's digest text.
func readMachine(m *core.Machine, text *bytes.Buffer) machineStats {
	st := machineStats{
		now:       m.Sim.Now(),
		net:       m.Net.Stats(),
		ringBusy:  m.Net.RingBusy(),
		cowClones: m.COWClones(),
		windows:   m.Sim.WindowStats(),
	}
	st.poolHits, st.poolMisses = m.PoolStats()
	st.schedBusy, _, _ = m.Sched.CPU.Stats()
	for _, nd := range m.Net.Nodes() {
		cpuBusy, cpuReq, cpuWait := nd.CPU.Stats()
		nicBusy, nicReq, nicWait := nd.NIC.Stats()
		st.nicBusy += nicBusy
		st.nicWait += nicWait
		st.nodes++
		fmt.Fprintf(text, "node%d|%d|%d|%d|%d|%d|%d", nd.ID, cpuBusy, cpuReq, cpuWait, nicBusy, nicReq, nicWait)
		if nd.Drive != nil {
			ds := nd.Drive.Stats()
			busy, req, wait := nd.Drive.Resource().Stats()
			st.reads += ds.Reads()
			st.writes += ds.Writes()
			st.random += ds.RandReads + ds.RandWrites
			st.driveBusy += busy
			st.drives++
			fmt.Fprintf(text, "|%d|%d|%d|%d|%d|%d|%d|%d|%d",
				ds.SeqReads, ds.RandReads, ds.SeqWrites, ds.RandWrites, ds.BytesRead, ds.BytesWritten, busy, req, wait)
		}
		text.WriteByte('\n')
	}
	fmt.Fprintf(text, "machine|%d|%d|%d|%d|%d|%d|%d|%d|%d\n", st.now, st.net.DataPackets, st.net.LocalMsgs,
		st.net.CtlMsgs, st.net.RingBytes, st.ringBusy, st.cowClones, st.poolHits, st.poolMisses)
	return st
}

// layerMetrics derives the per-layer metrics of a pass from its rounds.
// Counts are per round; exact statistics are the same in every round.
func layerMetrics(rounds []*roundCtx) map[string]metric {
	n := float64(len(rounds))
	var events, programNS float64
	var ws sim.WindowStats
	var occupancy, simS, packets, ctl, local, saved, cow float64
	var reads, writes, random, hits, lookups float64
	var driveUtil, nicUtil, nicWait, ring, schedUtil float64
	maxInFlight := 0
	byClass := map[callClass][]float64{}
	var paperLn []float64
	for _, rc := range rounds {
		st := &rc.machine
		events += float64(rc.events.Load())
		programNS += float64(rc.programTime())
		for _, c := range rc.calls {
			byClass[c.class] = append(byClass[c.class], float64(rc.b.clock.scaled(c.t)))
		}
		paperLn = append(paperLn, rc.paperLn...)
		ws.Windows += st.windows.Windows
		ws.GroupWindows += st.windows.GroupWindows
		ws.FuseOps += st.windows.FuseOps
		ws.WindowEvents += st.windows.WindowEvents
		occupancy += st.windows.Occupancy()
		simS += rc.simElapsed.Seconds()
		packets += float64(st.net.DataPackets)
		ctl += float64(st.net.CtlMsgs)
		local += float64(st.net.LocalMsgs)
		saved += float64(rc.pagesSaved)
		cow += float64(st.cowClones)
		reads += float64(st.reads)
		writes += float64(st.writes)
		random += float64(st.random)
		hits += float64(st.poolHits)
		lookups += float64(st.poolHits + st.poolMisses)
		now := st.now.Seconds()
		driveUtil += ratio(st.driveBusy.Seconds(), now*float64(st.drives))
		nicUtil += ratio(st.nicBusy.Seconds(), now*float64(st.nodes))
		nicWait += st.nicWait.Seconds()
		ring += st.ringBusy.Seconds()
		schedUtil += ratio(st.schedBusy.Seconds(), now)
		maxInFlight = max(maxInFlight, rc.maxInFlight)
	}
	medianOf := func(c callClass, unit time.Duration) float64 {
		return median(byClass[c]) / float64(unit)
	}
	return map[string]metric{
		"sim.events":              {events / n, "count"},
		"sim.ns_per_event":        {ratio(programNS, events), "ns"},
		"sim.windows":             {float64(ws.Windows) / n, "count"},
		"sim.window_occupancy":    {occupancy / n, "share"},
		"sim.events_per_window":   {ratio(float64(ws.WindowEvents), float64(ws.Windows)), "count"},
		"sim.group_windows":       {float64(ws.GroupWindows) / n, "count"},
		"sim.fuse_ops":            {float64(ws.FuseOps) / n, "count"},
		"core.select_ms":          {medianOf(classSelect, time.Millisecond), "ms"},
		"core.join_ms":            {medianOf(classJoin, time.Millisecond), "ms"},
		"core.update_us":          {medianOf(classUpdate, time.Microsecond), "us"},
		"core.workload_s":         {medianOf(classWorkload, time.Second), "s"},
		"core.sim_s":              {simS / n, "s"},
		"core.data_packets":       {packets / n, "count"},
		"core.ctl_msgs":           {ctl / n, "count"},
		"core.local_msgs":         {local / n, "count"},
		"core.shared_pages_saved": {saved / n, "count"},
		"core.max_in_flight":      {float64(maxInFlight), "count"},
		"core.paper_err":          {mean(paperLn), "ln"},
		"wiss.pool_hit_ratio":     {ratio(hits, lookups), "share"},
		"wiss.cow_clones":         {cow / n, "count"},
		"disk.reads":              {reads / n, "count"},
		"disk.writes":             {writes / n, "count"},
		"disk.rand_share":         {ratio(random, reads+writes), "share"},
		"disk.util":               {driveUtil / n, "share"},
		"nose.nic_util":           {nicUtil / n, "share"},
		"nose.nic_wait_s":         {nicWait / n, "s"},
		"nose.ring_busy_s":        {ring / n, "s"},
		"nose.sched_cpu_util":     {schedUtil / n, "share"},
		"setup.restore_ms":        {medianOf(classRestore, time.Millisecond), "ms"},
	}
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

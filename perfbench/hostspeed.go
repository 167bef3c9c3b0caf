package main

import "time"

// Host-speed calibration.
//
// The benchmark runs on a few cores of a shared host whose speed drifts by
// tens of percent, within seconds and across minutes: a fixed loop's median
// time moved from 17 to 25 ms within 30 s with no CPU steal, so the slowdown
// is the cores' speed, not preemption, and thread CPU time drifts the same.
// The same work then reads differently from run to run by more than the
// benchmark's bounds, and a median over a run cannot remove drift that
// outlasts the run. perfbench therefore runs a fixed calibration workload,
// which uses no repository code, before every round, every set-up, and
// every call that starts calEvery or more after the last calibration, and
// once after the last call. It scales every host time it reports by
// calNominal ÷ the mean of the calibrations on either side of it. A
// reported host time is the time the call would take on a host where the
// calibration takes calNominal; a change to the program moves it as much as
// it moves the raw time, and host drift mostly does not.
//
// A calibration evicts some of the program's data from the core's caches,
// so the call after it runs slower: with a 300 KB calibration, a 7 ms
// selection read 10.5 ms. The calibration therefore keeps its data to a few
// kilobytes, and the first round fixes which of a round's calls are
// calibrated before; every later round calibrates before the same calls,
// whatever their timing.

// calEvery is the longest stretch of a round's calls in the first round
// without a calibration.
const calEvery = 50 * time.Millisecond

// calNominal is the calibration time that reported host times are scaled
// to: about what calibrate takes on a quiet 2-core host of this kind.
const calNominal = 5 * time.Millisecond

// calEvents is the size of the calibration workload.
const calEvents = 7000

// hostClock holds a run's calibrations in order. A nil clock calibrates
// nothing and scales nothing.
type hostClock struct {
	cals []time.Duration
	last time.Time // end of the latest calibration

	// before marks the calls of a round, by index, that a calibration
	// precedes; planned is set once the first round has fixed it.
	before  map[int]bool
	planned bool
}

// timing is one host-time measurement and the latest calibration taken
// before it (-1 if none).
type timing struct {
	d   time.Duration
	cal int
}

// calibrate runs the calibration workload once and records its time.
func (h *hostClock) calibrate() {
	if h != nil {
		h.cals = append(h.cals, calibrate())
		h.last = time.Now()
	}
}

// beforeCall reports whether call i of a round is calibrated before. Until
// the plan is fixed, it is when calEvery has passed since the last
// calibration.
func (h *hostClock) beforeCall(i int) bool {
	if h == nil {
		return false
	}
	if !h.planned && time.Since(h.last) >= calEvery {
		if h.before == nil {
			h.before = map[int]bool{}
		}
		h.before[i] = true
	}
	return h.before[i]
}

// latest is the index of the latest calibration, -1 if none.
func (h *hostClock) latest() int {
	if h == nil {
		return -1
	}
	return len(h.cals) - 1
}

// scaled is t's duration on a host where the calibration takes calNominal.
// It uses the mean of the calibrations before and after t; a measurement
// with no calibration before it is returned as measured.
func (h *hostClock) scaled(t timing) time.Duration {
	if h == nil || t.cal < 0 || t.cal >= len(h.cals) {
		return t.d
	}
	ref := h.cals[t.cal]
	if t.cal+1 < len(h.cals) {
		ref = (ref + h.cals[t.cal+1]) / 2
	}
	return time.Duration(float64(t.d) * float64(calNominal) / float64(ref))
}

// calibrate is the calibration workload: a small discrete-event loop that
// exercises what the simulator leans on — a binary event heap, a map, and
// a goroutine hand-off over unbuffered channels per event — with a few
// kilobytes of data and almost no allocation, so it neither evicts much of
// the program's data nor shows in the run's allocation metrics. It uses
// only the standard library, so no change to the repository changes it. It
// returns its host time.
func calibrate() time.Duration {
	start := time.Now()
	req, resp := make(chan uint64), make(chan uint64)
	go func() {
		for v := range req {
			resp <- v*0x9E3779B97F4A7C15 + 1
		}
		close(resp)
	}()
	r := &rng{state: 12345}
	var h calHeap
	for i := 0; i < len(h); i++ {
		h[i] = calEvent{at: r.next() % 1_000_000, ord: i}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	table := make(map[uint64]uint64, 512)
	var acc uint64
	for i := 0; i < calEvents; i++ {
		// Fire the earliest event and schedule its successor in its place.
		e := &h[0]
		req <- e.at
		v := <-resp
		k := v % 512
		table[k] += v
		acc += table[(k*7)%512]
		e.at += r.next() % 1000
		e.ord = i + len(h)
		h.down(0)
	}
	close(req)
	for range resp {
	}
	calSink += acc
	return time.Since(start)
}

// calSink keeps the calibration's result live.
var calSink uint64

type calEvent struct {
	at  uint64
	ord int
}

// calHeap is a fixed-size binary min-heap of events by (at, ord).
type calHeap [256]calEvent

func (h *calHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].ord < h[j].ord
}

// down restores the heap order below i.
func (h *calHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h.less(c+1, c) {
			c++
		}
		if !h.less(c, i) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

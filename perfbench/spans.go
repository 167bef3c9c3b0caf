package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one benchmark call into a layer, kept in memory during a traced run.
// Spans of one round share a run id and have the round's span as parent.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog collects spans; a nil log records nothing.
type spanLog struct {
	origin time.Time
	spans  []span
	rounds map[int]int // round number -> index of its round span
}

// add records one call of round run; the round's own span grows to cover it.
func (l *spanLog) add(run int, name string, start, end time.Time) {
	if l == nil {
		return
	}
	if l.rounds == nil {
		l.origin = start
		l.rounds = map[int]int{}
	}
	s, e := start.Sub(l.origin).Nanoseconds(), end.Sub(l.origin).Nanoseconds()
	id := fmt.Sprintf("r%d", run)
	ri, ok := l.rounds[run]
	if !ok {
		ri = len(l.spans)
		l.rounds[run] = ri
		l.spans = append(l.spans, span{ID: ri + 1, Run: id, Name: "round", Start: s, End: e})
	}
	l.spans[ri].End = max(l.spans[ri].End, e)
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: ri + 1, Run: id, Name: name, Start: s, End: e})
}

// uncovered is the share of a pass's wall time that no call span covers:
// benchmark bookkeeping between calls, or a layer boundary without a span.
func (l *spanLog) uncovered(wall time.Duration) float64 {
	var iv [][2]int64
	for _, s := range l.spans {
		if s.Parent != 0 {
			iv = append(iv, [2]int64{s.Start, s.End})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, end int64
	for _, v := range iv {
		if v[0] > end {
			covered += v[1] - v[0]
			end = v[1]
		} else if v[1] > end {
			covered += v[1] - end
			end = v[1]
		}
	}
	return ratio(float64(wall.Nanoseconds()-covered), float64(wall.Nanoseconds()))
}

// write saves the spans as JSON lines.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

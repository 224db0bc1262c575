package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around its
// own call. Spans caused by one pass or one request share Trace, the ID of
// their root span.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent,omitempty"` // 0 for a root span
	Trace  int              `json:"trace"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"` // since the recorder's epoch
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil *recorder is the
// untraced mode: begin returns 0 and end does nothing.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span named name under parent (0 opens a root) and returns
// its ID.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	trace := id
	if parent > 0 {
		trace = r.spans[parent-1].Trace
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: now})
	return id
}

// end closes span id and attaches its work counts.
func (r *recorder) end(id int, counts map[string]int64) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = now
	r.spans[id-1].Counts = counts
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// layerTime is one layer's share of a traced run: Busy sums its spans'
// durations, Self subtracts the part of each span its child spans cover.
type layerTime struct {
	Name   string           `json:"name"`
	Spans  int              `json:"spans"`
	BusyNs int64            `json:"busy_ns"`
	SelfNs int64            `json:"self_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// selfTimes returns each span's duration minus the union of its children's
// intervals, clipped to the span itself, keyed by span ID.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		iv := children[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered int64
		cur := s.Start // everything before cur is already counted
		for _, c := range iv {
			lo, hi := max(c[0], cur), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// layers folds spans by name into busy and self time, sorted by name.
func layers(spans []span) []layerTime {
	self := selfTimes(spans)
	by := make(map[string]*layerTime)
	for _, s := range spans {
		l := by[s.Name]
		if l == nil {
			l = &layerTime{Name: s.Name}
			by[s.Name] = l
		}
		l.Spans++
		l.BusyNs += s.dur()
		l.SelfNs += self[s.ID]
		for k, v := range s.Counts {
			if l.Counts == nil {
				l.Counts = make(map[string]int64)
			}
			l.Counts[k] += v
		}
	}
	out := make([]layerTime, 0, len(by))
	for _, l := range by {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// busy returns the named layer's busy time and counts, zero when absent.
func busy(ls []layerTime, name string) (time.Duration, map[string]int64) {
	for _, l := range ls {
		if l.Name == name {
			return time.Duration(l.BusyNs), l.Counts
		}
	}
	return 0, nil
}

// checkNesting verifies that every span is closed, that its parent exists
// and belongs to the same trace, and that it lies inside its parent.
func checkNesting(spans []span) error {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) never ended", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		switch {
		case !ok:
			return fmt.Errorf("span %d (%s) has no parent %d", s.ID, s.Name, s.Parent)
		case p.Trace != s.Trace:
			return fmt.Errorf("span %d (%s) is in trace %d, its parent in %d", s.ID, s.Name, s.Trace, p.Trace)
		case s.Start < p.Start || s.End > p.End:
			return fmt.Errorf("span %d (%s) [%d,%d] leaves its parent %s [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	return nil
}

// writeTrace writes the spans and their per-layer summary as JSON.
func writeTrace(path string, spans []span) error {
	data, err := json.Marshal(struct {
		Layers []layerTime `json:"layers"`
		Spans  []span      `json:"spans"`
	}{layers(spans), spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"madeus/internal/core"
)

// span is one traced interval. Spans of one interaction or migration share
// the root's id as Parent (the root itself has Parent 0).
type span struct {
	ID     uint64    `json:"id"`
	Parent uint64    `json:"parent"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	on    atomic.Bool // new interactions are traced while set
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) add(name string, parent uint64, start, end time.Time) {
	t.addID(t.newID(), name, parent, start, end)
}

func (t *tracer) addID(id uint64, name string, parent uint64, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
	t.mu.Unlock()
}

// migration records a migration root span and its Step 1-4 children,
// rebuilt from the report's timestamps and step durations. In the
// pipelined Step 1 the dump and the restore overlap, so the Step-1 and
// Step-2 spans overlap too.
func (t *tracer) migration(rep *core.Report) {
	root := t.newID()
	t.addID(root, "migration", 0, rep.Start, rep.End)
	dumpStart := rep.Start.Add(rep.DrainTime)
	t.add("step1.drain", root, rep.Start, dumpStart)
	t.add("step1.dump", root, dumpStart, dumpStart.Add(rep.SnapshotTime))
	t.add("step2.restore", root, dumpStart, dumpStart.Add(rep.RestoreTime))
	propStart := dumpStart.Add(rep.RestoreTime)
	t.add("step3.propagate", root, propStart, propStart.Add(rep.PropagateTime))
	t.add("step4.switchover", root, rep.End.Add(-rep.SwitchTime), rep.End)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes renders, per span name, the spans' count, mean duration and
// mean self time: the duration minus the part of it the span's children
// cover.
func (t *tracer) selfTimes() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[uint64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	type agg struct {
		n         int
		dur, self time.Duration
	}
	by := make(map[string]*agg)
	for _, s := range t.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		d := s.End.Sub(s.Start)
		a.n++
		a.dur += d
		a.self += d - covered(s, children[s.ID])
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	lines := []string{fmt.Sprintf("trace: %-18s %8s %12s %12s", "span", "count", "mean_us", "self_us")}
	for _, n := range names {
		a := by[n]
		lines = append(lines, fmt.Sprintf("trace: %-18s %8d %12.1f %12.1f", n, a.n,
			us(a.dur)/float64(a.n), us(a.self)/float64(a.n)))
	}
	return lines
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Time, 0, len(kids))
	for _, k := range kids {
		s, e := k.Start, k.End
		if s.Before(parent.Start) {
			s = parent.Start
		}
		if e.After(parent.End) {
			e = parent.End
		}
		if e.After(s) {
			iv = append(iv, [2]time.Time{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var curS, curE time.Time
	for i, x := range iv {
		if i == 0 || x[0].After(curE) {
			if i > 0 {
				total += curE.Sub(curS)
			}
			curS, curE = x[0], x[1]
			continue
		}
		if x[1].After(curE) {
			curE = x[1]
		}
	}
	if len(iv) > 0 {
		total += curE.Sub(curS)
	}
	return total
}

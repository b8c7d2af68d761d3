package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one traced interval. Spans of one step share Trace, the step
// number; the step's own span is the parent of its checkpoint, verification
// and per-rank collective spans. Set-up phases have Trace -1.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Clock is "host" (ns since the traced session's set-up began) or
	// "sim" (simulated ns, read with RankCtx.Now).
	Clock string `json:"clock"`
	Rank  int    `json:"rank"` // -1 for driver-side spans
	Start int64  `json:"start"`
	End   int64  `json:"end"`
}

// spanLog keeps a traced run's spans in memory until the run ends.
type spanLog struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	next    int         // last span ID handed out
	stepIDs map[int]int // step number -> ID of the step's own span
	// open and openAt are the set-up phase currently open.
	open   string
	openAt time.Time
}

func newSpanLog() *spanLog {
	return &spanLog{t0: time.Now(), stepIDs: make(map[int]int)}
}

func (l *spanLog) add(sp span) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if sp.Trace >= 0 {
		if id := l.stepID(sp.Trace); sp.Name == "step" {
			sp.ID = id
		} else {
			sp.Parent = id
		}
	}
	if sp.ID == 0 {
		l.next++
		sp.ID = l.next
	}
	l.spans = append(l.spans, sp)
}

// stepID is the span ID reserved for step n's own span, which is recorded
// after its children.
func (l *spanLog) stepID(n int) int {
	id, ok := l.stepIDs[n]
	if !ok {
		l.next++
		id = l.next
		l.stepIDs[n] = id
	}
	return id
}

// phase closes the open set-up phase, if any, and opens the named one; an
// empty name only closes.
func (l *spanLog) phase(name string) {
	now := time.Now()
	if l.open != "" {
		l.add(span{Trace: -1, Name: l.open, Clock: "host", Rank: -1,
			Start: l.openAt.Sub(l.t0).Nanoseconds(), End: now.Sub(l.t0).Nanoseconds()})
	}
	l.open, l.openAt = name, now
}

// host records a driver-side span of step n.
func (l *spanLog) host(n int, name string, start time.Time, d time.Duration) {
	s := start.Sub(l.t0).Nanoseconds()
	l.add(span{Trace: n, Name: name, Clock: "host", Rank: -1, Start: s, End: s + d.Nanoseconds()})
}

// sim records rank's collective or Waitall call of step n on the simulated
// clock.
func (l *spanLog) sim(n, rank int, start, end int64) {
	l.add(span{Trace: n, Name: "rank-call", Clock: "sim", Rank: rank, Start: start, End: end})
}

func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

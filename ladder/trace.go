package main

import (
	"encoding/json"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sam/internal/obs"
)

// span is one timed call at a layer boundary. Spans of one operation share
// Op; Parent is the ID of the span that caused this one, -1 for a root.
type span struct {
	Op     int    `json:"op"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	// StartNS is relative to the recorder's epoch. Spans the server
	// returned carry offsets from their own trace's start and are placed
	// relative to their parent's start when the recorder is written out.
	StartNS int64 `json:"start_ns"`
	DurNS   int64 `json:"dur_ns"`
	Allocs  int64 `json:"allocs,omitempty"`
	// Count is the size in bytes of the reply a round-trip span received,
	// or the simulated cycles of an event-engine run.
	Count int64 `json:"count,omitempty"`
	// origin, when non-zero, is the ID of the span whose start StartNS is
	// an offset from.
	origin int64
}

// recorder keeps every span of a traced run in memory; writeSpans saves
// them once the run ends. A nil recorder records nothing, so untraced runs pay
// one nil check per boundary.
type recorder struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// newID reserves a span ID, so a caller can hand its ID to children that
// finish before it does.
func (r *recorder) newID() int64 { return r.newIDs(1) }

// newIDs reserves n consecutive span IDs and returns the first.
func (r *recorder) newIDs(n int) int64 {
	if r == nil {
		return -1
	}
	return r.ids.Add(int64(n)) - int64(n) + 1
}

// add records a span that started at start and lasted dur.
func (r *recorder) add(op int, id, parent int64, name string, start time.Time, dur time.Duration, allocs int64) {
	r.addSpan(span{Op: op, ID: id, Parent: parent, Name: name,
		StartNS: start.Sub(r.epoch).Nanoseconds(), DurNS: dur.Nanoseconds(), Allocs: allocs})
}

func (r *recorder) addSpan(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// timed records f's wall time as one span and returns f's error.
func (r *recorder) timed(op int, parent int64, name string, f func() error) error {
	if r == nil {
		return f()
	}
	t0 := time.Now()
	err := f()
	r.add(op, r.newID(), parent, name, t0, time.Since(t0), 0)
	return err
}

// timedAllocs is timed plus the heap allocations f made. It reads the
// process-wide allocation counter, so callers use it only while nothing else
// runs.
func (r *recorder) timedAllocs(op int, parent int64, name string, f func() error) error {
	if r == nil {
		return f()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	err := f()
	dur := time.Since(t0)
	runtime.ReadMemStats(&after)
	r.add(op, r.newID(), parent, name, t0, dur, int64(after.Mallocs-before.Mallocs))
	return err
}

// addServer nests the spans the server returned for a ?trace=1 request
// under parent. Their parent indices point into the same slice.
func (r *recorder) addServer(op int, parent int64, spans []obs.SpanData) {
	if r == nil || len(spans) == 0 {
		return
	}
	ids := make([]int64, len(spans))
	for i := range spans {
		ids[i] = r.newID()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, sd := range spans {
		p := parent
		if sd.Parent >= 0 && sd.Parent < len(spans) {
			p = ids[sd.Parent]
		}
		r.spans = append(r.spans, span{Op: op, ID: ids[i], Parent: p, Name: "serve." + sd.Name,
			StartNS: sd.StartNS, DurNS: sd.DurNS, origin: parent})
	}
}

// finish places server spans on the recorder's clock, at offsets from the
// start of the span they nest under, and returns every span sorted by
// operation and start.
func (r *recorder) finish() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	start := make(map[int64]int64, len(r.spans))
	for _, s := range r.spans {
		if s.origin == 0 {
			start[s.ID] = s.StartNS
		}
	}
	for i := range r.spans {
		if s := &r.spans[i]; s.origin != 0 {
			s.StartNS += start[s.origin]
			s.origin = 0
		}
	}
	slices.SortStableFunc(r.spans, func(a, b span) int {
		if a.Op != b.Op {
			return a.Op - b.Op
		}
		return int(a.StartNS - b.StartNS)
	})
	return r.spans
}

// writeSpans saves the spans as one JSON array.
func writeSpans(path string, spans []span) error {
	buf, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// selfNS returns each span's duration minus the part of it that its
// children cover, keyed by span ID.
func selfNS(spans []span) map[int64]int64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		lo, hi := s.StartNS, s.StartNS+s.DurNS
		kids := children[s.ID]
		slices.SortFunc(kids, func(a, b span) int { return int(a.StartNS - b.StartNS) })
		covered, reach := int64(0), lo
		for _, k := range kids {
			a, b := max(k.StartNS, reach), min(k.StartNS+k.DurNS, hi)
			if b > a {
				covered += b - a
				reach = b
			}
		}
		self[s.ID] = s.DurNS - covered
	}
	return self
}

// layerStats aggregates a traced run's spans per operation.
type layerStats struct {
	spans []span
	self  map[int64]int64
}

func newLayerStats(spans []span) layerStats {
	return layerStats{spans: spans, self: selfNS(spans)}
}

// perOp sums, for every operation keep accepts, the value pick reads from
// the spans named name. Operations without such a span are absent.
func (l layerStats) perOp(name string, keep func(op int) bool, pick func(span) float64) map[int]float64 {
	out := map[int]float64{}
	for _, s := range l.spans {
		if s.Name == name && keep(s.Op) {
			out[s.Op] += pick(s)
		}
	}
	return out
}

func spanMS(s span) float64     { return float64(s.DurNS) / 1e6 }
func spanAllocs(s span) float64 { return float64(s.Allocs) }
func spanCount(s span) float64  { return float64(s.Count) }

func (l layerStats) selfMS(s span) float64 { return float64(l.self[s.ID]) / 1e6 }

// median is the median over the operations keep accepts of what pick reads
// from their spans named name; 0 when none passed through that layer.
func (l layerStats) median(name string, keep func(op int) bool, pick func(span) float64) float64 {
	return median(values(l.perOp(name, keep, pick)))
}

func values(m map[int]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

func anyOp(int) bool        { return true }
func loopOp(op int) bool    { return op >= 0 }
func offLoopOp(op int) bool { return op < 0 }

package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// opRecord is one completed operation of a closed loop.
type opRecord struct {
	op    int
	kind  string // operation shape, e.g. "evaluate" or "put"
	epoch int
	lat   time.Duration
	ok    bool
	value int64 // workload-defined count carried by the op (simulated cycles)
}

// epochs is how many parts a measured window is cut into. Calibration
// bursts bracket each epoch; per-epoch rates are scaled by that epoch's
// machine speed and the median epoch is reported.
const epochs = 20

// loopResult is what a closed loop measured.
type loopResult struct {
	ops []opRecord
	// busy is each epoch's time driving the loop, and speed the machine
	// speed its calibration bursts measured (see calibrate).
	busy  []time.Duration
	speed []float64
	// Allocation and GC counts cover the loop only, not the calibration.
	mallocs uint64
	bytes   uint64
	numGC   uint32
}

// closedLoop runs callers goroutines, each issuing its next operation only
// after the previous one completed, for about window in all. Operation
// indices come from one shared counter, so the callers walk a single fixed
// operation list between them. do performs operation op and reports its
// shape, whether its output was correct, and an optional count. The window
// is cut into epochs, with a calibration burst on callers goroutines
// before the first and after each, while the loop is idle; an epoch ends
// once every operation begun in it has completed.
func closedLoop(callers int, window time.Duration, do func(op int) (kind string, ok bool, value int64)) loopResult {
	var next atomic.Int64
	var mu sync.Mutex
	r := loopResult{busy: make([]time.Duration, epochs), speed: make([]float64, epochs)}
	epoch := window / epochs
	burst := epoch / calibrationShare
	runtime.GC()
	// Each epoch's speed is the mean of the bursts just before and just
	// after it, which halves the calibration's own noise and follows drift
	// within the epoch.
	prev := calibrate(callers, burst)
	for e := 0; e < epochs; e++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var mine []opRecord
				for time.Since(start) < epoch-burst {
					op := int(next.Add(1) - 1)
					t0 := time.Now()
					kind, ok, value := do(op)
					mine = append(mine, opRecord{op: op, kind: kind, epoch: e, lat: time.Since(t0), ok: ok, value: value})
				}
				mu.Lock()
				r.ops = append(r.ops, mine...)
				mu.Unlock()
			}()
		}
		wg.Wait()
		r.busy[e] = time.Since(start)
		runtime.ReadMemStats(&after)
		r.mallocs += after.Mallocs - before.Mallocs
		r.bytes += after.TotalAlloc - before.TotalAlloc
		r.numGC += after.NumGC - before.NumGC
		cur := calibrate(callers, burst)
		r.speed[e] = (prev + cur) / 2
		prev = cur
	}
	slices.SortFunc(r.ops, func(a, b opRecord) int { return a.op - b.op })
	return r
}

// warmup is how long a run drives its loop, unmeasured, before the
// measured window: long enough for the heap and the connections to reach
// their steady size.
func warmup(window time.Duration) time.Duration { return min(window/5, 2*time.Second) }

// rate returns the median over epochs of weight(op) completed per second,
// scaled to the reference machine speed when scaled is set.
func (r loopResult) rate(scaled bool, weight func(opRecord) float64) float64 {
	sums := make([]float64, epochs)
	for _, o := range r.ops {
		sums[o.epoch] += weight(o)
	}
	for e := range sums {
		sums[e] /= r.busy[e].Seconds()
		if scaled {
			sums[e] /= r.speed[e]
		}
	}
	return median(sums)
}

// throughput is completed operations per second, as rate measures it.
func (r loopResult) throughput(scaled bool) float64 {
	return r.rate(scaled, func(opRecord) float64 { return 1 })
}

// machineSpeed is the median calibration speed over the epochs.
func (r loopResult) machineSpeed() float64 { return median(r.speed) }

// failures counts operations whose output or status was wrong.
func (r loopResult) failures() int64 {
	var n int64
	for _, o := range r.ops {
		if !o.ok {
			n++
		}
	}
	return n
}

// latencies returns the latencies in milliseconds of the ops of one kind,
// each scaled to the reference machine speed by its epoch's calibration
// when scaled is set.
func (r loopResult) latencies(kind string, scaled bool) []float64 {
	var out []float64
	for _, o := range r.ops {
		if o.kind == kind {
			l := ms(o.lat)
			if scaled {
				l *= r.speed[o.epoch]
			}
			out = append(out, l)
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// percentile is the nearest-rank q-quantile (0 < q <= 1) of xs; 0 when xs is
// empty.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// median is the middle value of xs (the mean of the two middle values for an
// even count); 0 when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// setupMedian runs f reps times, each after a calibration burst, and
// returns the median wall time in seconds, raw and scaled to the reference
// machine speed.
func setupMedian(reps int, f func() error) (raw, scaled float64, err error) {
	secs := make([]float64, reps)
	norm := make([]float64, reps)
	for i := range secs {
		speed := calibrate(1, calibrationBurst)
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, 0, err
		}
		secs[i] = time.Since(t0).Seconds()
		norm[i] = secs[i] * speed
	}
	return median(secs), median(norm), nil
}

// peakRSSMiB reads the process's peak resident set size from /proc; 0 where
// /proc is unavailable.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

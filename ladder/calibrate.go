package main

import (
	"encoding/json"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The machine this benchmark runs on is shared: on the 2-CPU machine it was
// built on, the same operation list ran up to 2x faster or slower from one
// minute to the next, and a run-level median cannot remove that. So every
// wall-clock end-to-end metric is scaled by the machine's speed at the time,
// measured on a fixed calibration kernel that does not depend on SAM's
// code: decoding one fixed JSON document, a load of allocation, parsing and
// garbage collection like the serving path's. Over ten seeds on that
// machine, scaling cut the spread (interquartile range over median) of
// serve-inline throughput from 23% to 4%; README.md has every metric.
// Raw figures are kept beside the scaled ones in results.jsonl and on
// standard error.
const (
	// calibrationShare is the part of each epoch (1/calibrationShare)
	// spent calibrating instead of measuring.
	calibrationShare = 10
	// calibrationBurst is the burst measured before a one-off timing
	// (set-up, the event-engine reference).
	calibrationBurst = 50 * time.Millisecond
)

// calibrationRef is the calibration kernel's rate, in decodes per second
// per goroutine, that speed 1 stands for, by the number of goroutines
// decoding at once; two goroutines contend for the heap and the collector.
// The values are typical of the machine the benchmark was built on.
var calibrationRef = map[int]float64{1: 7800, 2: 4500}

// calibrationDoc is the document the kernel decodes: 300 numbers, 300
// strings and a 30-entry map.
type calibrationDoc struct {
	Numbers []int64          `json:"numbers"`
	Names   []string         `json:"names"`
	Index   map[string]int64 `json:"index"`
}

var calibrationBody = func() []byte {
	d := calibrationDoc{Index: map[string]int64{}}
	for i := 0; i < 300; i++ {
		d.Numbers = append(d.Numbers, int64(i*7919%1000))
		d.Names = append(d.Names, "name"+strconv.Itoa(i))
		if i%10 == 0 {
			d.Index["key"+strconv.Itoa(i)] = int64(i)
		}
	}
	buf, err := json.Marshal(d)
	if err != nil {
		panic(err)
	}
	return buf
}()

// calibrate runs the calibration kernel on goroutines goroutines (1 or 2)
// for d and returns the machine speed: the per-goroutine rate over its
// reference.
func calibrate(goroutines int, d time.Duration) float64 {
	var total atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := int64(0)
			for time.Since(start) < d {
				var doc calibrationDoc
				if err := json.Unmarshal(calibrationBody, &doc); err != nil {
					panic(err)
				}
				n++
			}
			total.Add(n)
		}()
	}
	wg.Wait()
	return float64(total.Load()) / time.Since(start).Seconds() / float64(goroutines) / calibrationRef[goroutines]
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"sam/internal/bind"
	"sam/internal/comp"
	"sam/internal/custard"
	"sam/internal/fiber"
	"sam/internal/graph"
	"sam/internal/lang"
	"sam/internal/serve"
	"sam/internal/sim"
	"sam/internal/tensor"
)

const (
	// serveClients is the number of keep-alive clients of the serve
	// workloads, one per CPU of the machine the benchmark was sized on.
	serveClients = 2
	// setupReps is how many times a run boots its server (or warms the
	// sweep); setup_s is the median.
	setupReps = 5
	// referenceTime is how long the event-engine reference of a serve
	// workload runs its closed loop.
	referenceTime = 5 * time.Second
	// Span headers carry a traced request's operation and round-trip span
	// IDs to the handler wrapper.
	opHeader   = "X-Ladder-Op"
	spanHeader = "X-Ladder-Span"
)

// csr is the matrix format of both serve workloads.
var (
	csrWire = serve.WireFormat{Levels: []string{"dense", "compressed"}}
	csr     = lang.Format{Levels: []fiber.Format{fiber.Dense, fiber.Compressed}}
)

// liveServer is a serve.Server behind a loopback net/http listener, with a
// keep-alive client.
type liveServer struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
}

// startServer boots a server with the default configuration and waits
// until it reports ready. With a recorder, the handler is wrapped so each
// traced request's handler time is recorded as a span.
func startServer(rec *recorder) (*liveServer, error) {
	srv := serve.NewServer(serve.Config{})
	var h http.Handler = srv
	if rec != nil {
		h = handlerSpans(srv, rec)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	ls := &liveServer{
		srv: srv, hs: &http.Server{Handler: h}, served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, DisableCompression: true}},
	}
	go func() { ls.served <- ls.hs.Serve(ln) }()
	for tries := 0; ; tries++ {
		status, _, err := ls.call(nil, 0, http.MethodGet, "/readyz", nil, nil)
		if err == nil && status == http.StatusOK {
			return ls, nil
		}
		if tries == 200 {
			ls.close()
			return nil, fmt.Errorf("server not ready after %d probes (status %d, %v)", tries, status, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// close stops the listener, waits for Serve to return, and drains the
// server.
func (ls *liveServer) close() {
	_ = ls.hs.Shutdown(context.Background()) // only a context error; Background has none
	<-ls.served
	ls.client.CloseIdleConnections()
	ls.srv.Close()
}

// handlerSpans records the server-side handler time of every request that
// carries span headers, as a child of the client's round-trip span.
func handlerSpans(h http.Handler, rec *recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, errOp := strconv.Atoi(r.Header.Get(opHeader))
		root, errSpan := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		t0 := time.Now()
		h.ServeHTTP(w, r)
		if errOp == nil && errSpan == nil {
			rec.add(op, root+1, root, "serve.handler.live", t0, time.Since(t0), 0)
		}
	})
}

// call sends one request and, on status 200, decodes the JSON reply into
// out. With a recorder it records the round trip as the operation's root
// span and returns the ID of the handler span nested under it.
func (ls *liveServer) call(rec *recorder, op int, method, path string, body []byte, out any) (int, int64, error) {
	req, err := http.NewRequest(method, ls.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	root := rec.newIDs(2)
	if rec != nil {
		req.Header.Set(opHeader, strconv.Itoa(op))
		req.Header.Set(spanHeader, strconv.FormatInt(root, 10))
	}
	t0 := time.Now()
	resp, err := ls.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rec != nil {
		rec.addSpan(span{Op: op, ID: root, Parent: -1, Name: "http.roundtrip",
			StartNS: t0.Sub(rec.epoch).Nanoseconds(), DurNS: time.Since(t0).Nanoseconds(), Count: int64(len(reply))})
	}
	if err != nil {
		return resp.StatusCode, root + 1, err
	}
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.Unmarshal(reply, out); err != nil {
			return resp.StatusCode, root + 1, err
		}
	}
	return resp.StatusCode, root + 1, nil
}

// serveWorkload is what differs between the two serve workloads; runServe
// drives both.
type serveWorkload struct {
	// prepare uploads and warms a freshly booted server.
	prepare func(ls *liveServer) error
	// do performs operation op and reports its kind and whether its reply
	// was correct.
	do func(ls *liveServer, rec *recorder, op int) (kind string, ok bool)
	// readKind is the operation kind latency percentiles are taken over.
	readKind string
	// replay re-runs the first operations in process through the public
	// calls, one span per call, and returns how many it checked and how
	// many were wrong.
	replay func(ls *liveServer, rec *recorder) (attempted, failed int64, err error)
	// children names the replay spans handler self time excludes.
	children []string
	// reference runs reference operation op, the workload's kernel on the
	// event engine (compiled cold, checked against the gold output), and
	// returns its simulated cycles. referencePass operations make one pass
	// over the workload's distinct inputs.
	reference     func(rec *recorder, op int) (cycles int, err error)
	referencePass int
	// blocks is the served graph's block count; requestBytes the median
	// evaluate request body size; fixpointIters the iterations of one
	// fixpoint operation (0 when there are none).
	blocks, requestBytes, fixpointIters int64
	// replays is how many operations, from the first, replay re-runs.
	replays int
	// isRead reports whether op is of readKind.
	isRead func(op int) bool
}

// runServe boots the server setupReps times (once when traced), measures
// the closed loop, and in a traced run adds the traced loop, the replay and
// the reference spans.
func runServe(cfg config, w *serveWorkload) (*outcome, error) {
	var rec *recorder
	reps := setupReps
	if cfg.trace {
		rec = newRecorder()
		reps = 1
	}
	var ls *liveServer
	setup, setupScaled, err := setupMedian(reps, func() error {
		if ls != nil {
			ls.close()
		}
		var err error
		if ls, err = startServer(rec); err != nil {
			return err
		}
		return w.prepare(ls)
	})
	if ls != nil {
		defer ls.close()
	}
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	untraced := func(op int) (string, bool, int64) {
		kind, ok := w.do(ls, nil, op)
		return kind, ok, 0
	}
	warm := closedLoop(serveClients, warmup(cfg.window), untraced)
	before := ls.srv.Stats()
	plain := closedLoop(serveClients, cfg.window, untraced)
	oc := &outcome{
		attempted: int64(len(warm.ops) + len(plain.ops)), failed: warm.failures() + plain.failures(),
		metrics: map[string]float64{}, pins: map[string]int64{
			"opt.graph_blocks": w.blocks, "serve.request_bytes": w.requestBytes,
		},
	}
	if !cfg.trace {
		ref, cycles, err := runReference(w, nil)
		if err != nil {
			return nil, err
		}
		oc.attempted += int64(len(ref.ops))
		oc.failed += ref.failures()
		n := float64(len(plain.ops))
		oc.metrics = map[string]float64{
			"allocs_per_op":   float64(plain.mallocs) / n,
			"alloc_kb_per_op": float64(plain.bytes) / 1024 / n,
			"peak_rss_mb":     peakRSSMiB(),
			"sim_cycles":      float64(cycles),
		}
		for _, scaled := range []bool{false, true} {
			reads := plain.latencies(w.readKind, scaled)
			oc.wall(scaled, map[string]float64{
				"throughput_ops":    plain.throughput(scaled),
				"latency_p50_ms":    percentile(reads, 0.50),
				"latency_p90_ms":    percentile(reads, 0.90),
				"setup_s":           pick(scaled, setup, setupScaled),
				"sim_mcycles_per_s": ref.rate(scaled, opValue) / 1e6,
			})
		}
		oc.speed = plain.machineSpeed()
		oc.pins["sim_cycles"] = cycles
		oc.pins["sim.fixpoint_iters"] = w.fixpointIters
		return oc, nil
	}

	traced := closedLoop(serveClients, cfg.window, func(op int) (string, bool, int64) {
		kind, ok := w.do(ls, rec, op)
		return kind, ok, 0
	})
	after := ls.srv.Stats()
	oc.attempted += int64(len(traced.ops))
	oc.failed += traced.failures()
	attempted, failed, err := w.replay(ls, rec)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	oc.attempted += attempted
	oc.failed += failed
	ref, cycles, err := runReference(w, rec)
	if err != nil {
		return nil, err
	}
	oc.attempted += int64(len(ref.ops))
	oc.failed += ref.failures()
	oc.pins["sim_cycles"] = cycles
	oc.pins["sim.fixpoint_iters"] = w.fixpointIters
	oc.spans = rec.finish()
	l := newLayerStats(oc.spans)

	replayed := func(op int) bool { return op >= 0 && op < w.replays }
	reads := func(op int) bool { return op >= 0 && w.isRead(op) }
	writes := func(op int) bool { return op >= 0 && !w.isRead(op) }
	handler := l.perOp("serve.handler", replayed, spanMS)
	for _, child := range w.children {
		for op, v := range l.perOp(child, replayed, spanMS) {
			handler[op] -= v
		}
	}
	bindHits := after.TensorsBindHits - before.TensorsBindHits
	bindAll := bindHits + after.TensorsBindBuilds - before.TensorsBindBuilds
	hitRatio := 0.0
	if bindAll > 0 {
		hitRatio = float64(bindHits) / float64(bindAll)
	}
	fixIter := l.perOp("sim.fixpoint", replayed, spanMS)
	for op := range fixIter {
		fixIter[op] /= float64(w.fixpointIters)
	}
	thrPlain, thrTraced := plain.throughput(true), traced.throughput(true)
	oc.speed = plain.machineSpeed()
	oc.metrics = map[string]float64{
		"serve.wire_decode_ms":       l.median("serve.wire_decode", replayed, spanMS),
		"serve.wire_decode_allocs":   l.median("serve.wire_decode", replayed, spanAllocs),
		"serve.wire_encode_ms":       l.median("serve.wire_encode", replayed, spanMS),
		"serve.request_bytes":        float64(w.requestBytes),
		"serve.response_bytes":       l.median("http.roundtrip", reads, spanCount),
		"serve.handler_ms":           l.median("serve.handler", replayed, spanMS),
		"serve.handler_allocs":       l.median("serve.handler", replayed, spanAllocs),
		"serve.handler_self_ms":      median(values(handler)),
		"serve.admission_ms":         l.median("serve.admission", reads, spanMS),
		"serve.queue_wait_ms":        l.median("serve.queue_wait", reads, spanMS),
		"serve.store_put_ms":         l.median("serve.handler.live", writes, spanMS),
		"serve.store_bind_hit_ratio": hitRatio,
		"serve.cache_misses":         float64(after.CacheMisses - before.CacheMisses),
		"http.roundtrip_ms":          l.median("http.roundtrip", reads, spanMS),
		"http.self_ms":               l.median("http.roundtrip", reads, l.selfMS),
		"lang.parse_ms":              l.median("lang.parse", replayed, spanMS),
		"custard.compile_ms":         l.median("custard.compile", offLoopOp, spanMS),
		"opt.graph_blocks":           float64(w.blocks),
		"sim.program_ms":             l.median("sim.program", offLoopOp, spanMS),
		"bind.operands_ms":           l.median("bind.operands", replayed, spanMS),
		"bind.operands_allocs":       l.median("bind.operands", replayed, spanAllocs),
		"comp.run_ms":                l.median("comp.run", replayed, spanMS),
		"comp.run_allocs":            l.median("comp.run", replayed, spanAllocs),
		"sim.fixpoint_iter_ms":       median(values(fixIter)),
		"sim.fixpoint_iters":         float64(w.fixpointIters),
		"core.event_run_ms":          l.median("core.event_run", offLoopOp, spanMS),
		"core.host_ns_per_cycle":     hostNSPerCycle(l, offLoopOp),
		"go.gc_per_op":               float64(traced.numGC) / float64(len(traced.ops)),
		"trace.overhead_pct":         (thrPlain - thrTraced) / thrPlain * 100,
	}
	return oc, nil
}

// runReference runs the workload's event-engine reference as a closed loop
// of one caller and returns it with the simulated cycles of one pass. Every
// repetition of an input must repeat its cycle count.
func runReference(w *serveWorkload, rec *recorder) (loopResult, int64, error) {
	seen := map[int]int{}
	var runErr error
	r := closedLoop(1, referenceTime, func(op int) (string, bool, int64) {
		cycles, err := w.reference(rec, op)
		if err != nil {
			runErr = err
			return "reference", false, 0
		}
		k := op % w.referencePass
		if c, ok := seen[k]; ok && c != cycles {
			runErr = fmt.Errorf("input %d simulated %d cycles, then %d", k, c, cycles)
			return "reference", false, 0
		}
		seen[k] = cycles
		return "reference", true, int64(cycles)
	})
	if runErr != nil {
		return r, 0, fmt.Errorf("event-engine reference: %w", runErr)
	}
	if len(seen) < w.referencePass {
		return r, 0, fmt.Errorf("event-engine reference: covered %d of %d inputs in %v", len(seen), w.referencePass, referenceTime)
	}
	var pass int64
	for _, c := range seen {
		pass += int64(c)
	}
	return r, pass, nil
}

func opValue(o opRecord) float64 { return float64(o.value) }

// hostNSPerCycle is the event engine's host time per simulated cycle over
// the event-run spans of the operations keep accepts.
func hostNSPerCycle(l layerStats, keep func(int) bool) float64 {
	var ns, cycles int64
	for _, s := range l.spans {
		if s.Name == "core.event_run" && keep(s.Op) {
			ns += s.DurNS
			cycles += s.Count
		}
	}
	if cycles == 0 {
		return 0
	}
	return float64(ns) / float64(cycles)
}

// compiled is one statement compiled the way the server compiles it, with
// the parts the replay calls directly.
type compiled struct {
	e    *lang.Einsum
	g    *graph.Graph
	prog *sim.Program
	plan *bind.Plan
	comp *comp.Program
}

// compileTraced parses and compiles a statement, recording the parse,
// compile and program-build spans under parent.
func compileTraced(rec *recorder, op int, parent int64, expr string, formats lang.Formats, sched lang.Schedule) (*compiled, error) {
	c := &compiled{}
	err := rec.timed(op, parent, "lang.parse", func() (err error) {
		c.e, err = lang.Parse(expr)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := rec.timed(op, parent, "custard.compile", func() (err error) {
		c.g, err = custard.Compile(c.e, formats, sched)
		return err
	}); err != nil {
		return nil, err
	}
	if err := rec.timed(op, parent, "sim.program", func() (err error) {
		c.prog, err = sim.NewProgram(c.g)
		return err
	}); err != nil {
		return nil, err
	}
	return c, nil
}

// withComp adds the direct bind plan and comp lowering of c's graph.
func (c *compiled) withComp() (*compiled, error) {
	c.plan = bind.NewPlan(c.g)
	var err error
	c.comp, err = comp.Compile(c.g)
	return c, err
}

// eventRun times run, an event-engine run, and records it under parent with
// its simulated cycles.
func eventRun(rec *recorder, op int, parent int64, run func() (int, error)) (int, time.Duration, error) {
	t0 := time.Now()
	cycles, err := run()
	dur := time.Since(t0)
	if rec != nil {
		rec.addSpan(span{Op: op, ID: rec.newID(), Parent: parent, Name: "core.event_run",
			StartNS: t0.Sub(rec.epoch).Nanoseconds(), DurNS: dur.Nanoseconds(), Count: int64(cycles)})
	}
	return cycles, dur, err
}

// replayHandler sends one request through Server.ServeHTTP in process.
func replayHandler(rec *recorder, op int, parent int64, srv *serve.Server, body []byte, out any) error {
	return rec.timedAllocs(op, parent, "serve.handler", func() error {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/evaluate", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			return fmt.Errorf("status %d: %s", w.Code, strings.TrimSpace(w.Body.String()))
		}
		return json.Unmarshal(w.Body.Bytes(), out)
	})
}

// lowerMedian is the nearest-rank median of sizes, a whole number.
func lowerMedian(sizes []int) int64 {
	xs := make([]float64, len(sizes))
	for i, s := range sizes {
		xs[i] = float64(s)
	}
	return int64(percentile(xs, 0.5))
}

// tensorMap is shorthand for an input binding.
type tensorMap = map[string]*tensor.COO

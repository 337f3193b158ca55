package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"

	"sam/internal/fiber"
	"sam/internal/lang"
	"sam/internal/serve"
	"sam/internal/sim"
	"sam/internal/tensor"
)

// serve-inline: SpMV over inline COO operands, the wire-heavy path.
const (
	inlineExpr    = "y(i) = A(i,j) * x(j)"
	inlineRows    = 200
	inlineCols    = 150
	inlineNNZ     = 1200
	inlineSets    = 8
	inlineReplays = 64
)

// serve-stored: PageRank fixpoints over a stored matrix, with one upload
// of a new matrix version in every putEvery operations.
const (
	storedExpr     = "y(i) = M(i,j) * x(j)"
	storedN        = 300
	storedNNZ      = 1800
	storedIters    = 10
	storedVersions = 3
	putEvery       = 10
	storedReplays  = 12
	// fixpointTol is the relative tolerance of the fixpoint check: the
	// values are fractions, and the engine may sum in another order than
	// lang.Gold.
	fixpointTol = 1e-9
)

// inlineSet is one pre-generated operand set of serve-inline.
type inlineSet struct {
	inputs tensorMap
	body   []byte
	gold   *tensor.COO
	// reply is the last correct reply, which the traced replay re-encodes.
	reply atomic.Pointer[serve.EvaluateResponse]
}

func runServeInline(cfg config) (*outcome, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	e := lang.MustParse(inlineExpr)
	sets := make([]*inlineSet, inlineSets)
	sizes := make([]int, inlineSets)
	for i := range sets {
		in := tensorMap{
			"A": intTensor(rng, "A", inlineNNZ, inlineRows, inlineCols),
			"x": intTensor(rng, "x", inlineCols, inlineCols),
		}
		gold, err := lang.Gold(e, in)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(serve.EvaluateRequest{
			Expr:    inlineExpr,
			Formats: map[string]serve.WireFormat{"A": csrWire},
			Options: &serve.WireOptions{Engine: string(sim.EngineComp)},
			Inputs:  map[string]serve.WireTensor{"A": toWire(in["A"]), "x": toWire(in["x"])},
		})
		if err != nil {
			return nil, err
		}
		sets[i] = &inlineSet{inputs: in, body: body, gold: gold}
		sizes[i] = len(body)
	}
	formats := lang.Formats{"A": csr}
	c, err := compileTraced(nil, 0, -1, inlineExpr, formats, lang.Schedule{})
	if err != nil {
		return nil, err
	}
	if c, err = c.withComp(); err != nil {
		return nil, err
	}

	evaluate := func(ls *liveServer, rec *recorder, op int) (string, bool) {
		set := sets[op%len(sets)]
		path := "/v1/evaluate"
		if rec != nil {
			path += "?trace=1"
		}
		var resp serve.EvaluateResponse
		status, handler, err := ls.call(rec, op, http.MethodPost, path, set.body, &resp)
		if err != nil || status != http.StatusOK || checkOutput(fromWire(resp.Output), set.gold, 0) != nil {
			return "evaluate", false
		}
		if rec != nil {
			rec.addServer(op, handler, resp.Trace)
			set.reply.Store(&resp)
		}
		return "evaluate", true
	}
	w := &serveWorkload{
		prepare: func(ls *liveServer) error {
			for i := range sets {
				if _, ok := evaluate(ls, nil, i); !ok {
					return fmt.Errorf("warm-up evaluate of operand set %d failed", i)
				}
			}
			return nil
		},
		do:       evaluate,
		readKind: "evaluate",
		isRead:   func(int) bool { return true },
		children: []string{"serve.wire_decode", "lang.parse", "bind.operands", "comp.run", "serve.wire_encode"},
		replays:  inlineReplays,
		replay: func(ls *liveServer, rec *recorder) (int64, int64, error) {
			var failed int64
			for op := 0; op < inlineReplays; op++ {
				set := sets[op%len(sets)]
				reply := set.reply.Load()
				if reply == nil {
					return 0, 0, fmt.Errorf("operand set %d has no correct traced reply to re-encode", op%len(sets))
				}
				root := rec.newID()
				out, err := replayCalls(rec, op, root, set.body, c, set.inputs)
				if err != nil {
					return 0, 0, err
				}
				if checkOutput(out, set.gold, 0) != nil {
					failed++
				}
				if err := rec.timedAllocs(op, root, "serve.wire_encode", func() error { _, err := json.Marshal(reply); return err }); err != nil {
					return 0, 0, err
				}
				var resp serve.EvaluateResponse
				if replayHandler(rec, op, root, ls.srv, set.body, &resp) != nil || checkOutput(fromWire(resp.Output), set.gold, 0) != nil {
					failed++
				}
			}
			return 2 * inlineReplays, failed, nil
		},
		reference: func(rec *recorder, op int) (int, error) {
			set := sets[op%len(sets)]
			c, err := compileTraced(rec, -1-op, -1, inlineExpr, formats, lang.Schedule{})
			if err != nil {
				return 0, err
			}
			var res *sim.Result
			cycles, _, err := eventRun(rec, -1-op, -1, func() (int, error) {
				var err error
				res, err = c.prog.Run(set.inputs, sim.Options{})
				if err != nil {
					return 0, err
				}
				return res.Cycles, nil
			})
			if err != nil {
				return 0, err
			}
			if err := checkOutput(res.Output, set.gold, 0); err != nil {
				return 0, fmt.Errorf("event engine on operand set %d: %w", op%len(sets), err)
			}
			return cycles, nil
		},
		referencePass: len(sets),
		blocks:        int64(len(c.g.Nodes)),
		requestBytes:  lowerMedian(sizes),
	}
	return runServe(cfg, w)
}

// pagerankMatrix draws a column-stochastic N×N matrix: nnz entries at
// random positions, each column's weights summing to 1.
func pagerankMatrix(rng *rand.Rand, pattern *tensor.COO) *tensor.COO {
	m := tensor.NewCOO("M", pattern.Dims...)
	colSum := make([]float64, pattern.Dims[1])
	w := make([]float64, len(pattern.Pts))
	for i, p := range pattern.Pts {
		w[i] = float64(1 + rng.Intn(9))
		colSum[p.Crd[1]] += w[i]
	}
	for i, p := range pattern.Pts {
		m.Append(w[i]/colSum[p.Crd[1]], p.Crd...)
	}
	return m
}

func runServeStored(cfg config) (*outcome, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	e := lang.MustParse(storedExpr)
	pattern := intTensor(rng, "M", storedNNZ, storedN, storedN)
	x0 := tensor.NewCOO("x", storedN)
	for i := 0; i < storedN; i++ {
		x0.Append(1/float64(storedN), int64(i))
	}
	fx := sim.Fixpoint{Var: "x", MaxIters: storedIters, Mode: sim.FixpointPageRank}
	versions := make([]*tensor.COO, storedVersions)
	puts := make([][]byte, storedVersions)
	golds := make([]*tensor.COO, storedVersions)
	for v := range versions {
		versions[v] = pagerankMatrix(rng, pattern)
		var err error
		if puts[v], err = json.Marshal(toWire(versions[v])); err != nil {
			return nil, err
		}
		// The reference is a host loop of lang.Gold plus the fixpoint's
		// own update rule.
		x := x0
		for it := 0; it < storedIters; it++ {
			y, err := lang.Gold(e, tensorMap{"M": versions[v], "x": x})
			if err != nil {
				return nil, err
			}
			if x, _, err = fx.Apply(y, x); err != nil {
				return nil, err
			}
		}
		golds[v] = x
	}
	xBody, err := json.Marshal(toWire(x0))
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(serve.EvaluateRequest{
		Expr:     storedExpr,
		Formats:  map[string]serve.WireFormat{"M": csrWire},
		Options:  &serve.WireOptions{Engine: string(sim.EngineComp)},
		Inputs:   map[string]serve.WireTensor{"M": {Ref: "M"}, "x": {Ref: "x"}},
		Fixpoint: &serve.WireFixpoint{Var: fx.Var, MaxIters: fx.MaxIters, Mode: fx.Mode},
	})
	if err != nil {
		return nil, err
	}
	formats := lang.Formats{"M": csr}
	c, err := compileTraced(nil, 0, -1, storedExpr, formats, lang.Schedule{})
	if err != nil {
		return nil, err
	}
	if c, err = c.withComp(); err != nil {
		return nil, err
	}

	// version maps each matrix version's content fingerprint, as the store
	// reports it, to the version; the first boot fills it.
	version := map[string]int{}
	fingerprints := make([]string, storedVersions)
	put := func(ls *liveServer, rec *recorder, op, v int) bool {
		var info serve.TensorInfo
		status, _, err := ls.call(rec, op, http.MethodPut, "/v1/tensors/M", puts[v], &info)
		if err != nil || status != http.StatusOK {
			return false
		}
		if fingerprints[v] == "" {
			fingerprints[v] = info.Fingerprint
			version[info.Fingerprint] = v
		}
		return info.Fingerprint == fingerprints[v]
	}
	var lastReply atomic.Pointer[serve.EvaluateResponse]
	checkFixpoint := func(resp *serve.EvaluateResponse) bool {
		v, ok := version[resp.Tensors["M"].Fingerprint]
		return ok && resp.Fixpoint != nil && resp.Fixpoint.Iterations == storedIters &&
			checkOutput(fromWire(resp.Output), golds[v], fixpointTol) == nil
	}
	isRead := func(op int) bool { return op%putEvery != putEvery-1 }
	w := &serveWorkload{
		prepare: func(ls *liveServer) error {
			// Upload every version once, so the fingerprints are known,
			// then start from version 0.
			for v := 0; v <= storedVersions; v++ {
				if !put(ls, nil, 0, v%storedVersions) {
					return fmt.Errorf("upload of matrix version %d failed", v%storedVersions)
				}
			}
			var info serve.TensorInfo
			if status, _, err := ls.call(nil, 0, http.MethodPut, "/v1/tensors/x", xBody, &info); err != nil || status != http.StatusOK {
				return fmt.Errorf("upload of the start vector failed: status %d, %v", status, err)
			}
			var resp serve.EvaluateResponse
			if status, _, err := ls.call(nil, 0, http.MethodPost, "/v1/evaluate", body, &resp); err != nil || status != http.StatusOK || !checkFixpoint(&resp) {
				return fmt.Errorf("warm-up fixpoint failed: status %d, %v", status, err)
			}
			return nil
		},
		do: func(ls *liveServer, rec *recorder, op int) (string, bool) {
			if !isRead(op) {
				return "put", put(ls, rec, op, (op/putEvery+1)%storedVersions)
			}
			path := "/v1/evaluate"
			if rec != nil {
				path += "?trace=1"
			}
			var resp serve.EvaluateResponse
			status, handler, err := ls.call(rec, op, http.MethodPost, path, body, &resp)
			if err != nil || status != http.StatusOK || !checkFixpoint(&resp) {
				return "fixpoint", false
			}
			if rec != nil {
				rec.addServer(op, handler, resp.Trace)
				lastReply.Store(&resp)
			}
			return "fixpoint", true
		},
		readKind: "fixpoint",
		isRead:   isRead,
		children: []string{"serve.wire_decode", "lang.parse", "sim.fixpoint", "serve.wire_encode"},
		replays:  storedReplays,
		replay: func(ls *liveServer, rec *recorder) (int64, int64, error) {
			reply := lastReply.Load()
			if reply == nil {
				return 0, 0, fmt.Errorf("no correct traced reply to re-encode")
			}
			in := tensorMap{"M": versions[0], "x": x0}
			// The service binds a stored matrix once; so does the replay.
			opt := sim.Options{Engine: sim.EngineComp, BindCache: &staticCache{src: versions[0]}}
			if _, err := sim.RunFixpoint(c.prog, in, fx, opt); err != nil {
				return 0, 0, err
			}
			var attempted, failed int64
			for op := 0; op < storedReplays; op++ {
				if !isRead(op) {
					continue
				}
				root := rec.newID()
				if _, err := replayCalls(rec, op, root, body, c, in); err != nil {
					return 0, 0, err
				}
				var fr *sim.FixpointResult
				if err := rec.timed(op, root, "sim.fixpoint", func() (err error) {
					fr, err = sim.RunFixpoint(c.prog, in, fx, opt)
					return err
				}); err != nil {
					return 0, 0, err
				}
				attempted += 2
				if fr.Iterations != storedIters || checkOutput(fr.Output, golds[0], fixpointTol) != nil {
					failed++
				}
				if err := rec.timedAllocs(op, root, "serve.wire_encode", func() error { _, err := json.Marshal(reply); return err }); err != nil {
					return 0, 0, err
				}
				var resp serve.EvaluateResponse
				if replayHandler(rec, op, root, ls.srv, body, &resp) != nil || !checkFixpoint(&resp) {
					failed++
				}
			}
			return attempted, failed, nil
		},
		reference: func(rec *recorder, op int) (int, error) {
			c, err := compileTraced(rec, -1-op, -1, storedExpr, formats, lang.Schedule{})
			if err != nil {
				return 0, err
			}
			var fr *sim.FixpointResult
			cycles, _, err := eventRun(rec, -1-op, -1, func() (int, error) {
				var err error
				fr, err = sim.RunFixpoint(c.prog, tensorMap{"M": versions[0], "x": x0}, fx, sim.Options{})
				if err != nil {
					return 0, err
				}
				return fr.Cycles, nil
			})
			if err != nil {
				return 0, err
			}
			if err := checkOutput(fr.Output, golds[0], fixpointTol); err != nil {
				return 0, fmt.Errorf("event-engine fixpoint: %w", err)
			}
			return cycles, nil
		},
		referencePass: 1,
		blocks:        int64(len(c.g.Nodes)),
		requestBytes:  int64(len(body)),
		fixpointIters: storedIters,
	}
	return runServe(cfg, w)
}

// staticCache memoizes the bound storage of one immutable operand, as the
// service's tensor store does for a stored tensor.
type staticCache struct {
	src   *tensor.COO
	mu    sync.Mutex
	trees map[string]*fiber.Tensor
}

func (c *staticCache) Lookup(src *tensor.COO, sig string) (*fiber.Tensor, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ft, ok := c.trees[sig]
	return ft, ok && src == c.src
}

func (c *staticCache) Store(src *tensor.COO, sig string, ft *fiber.Tensor) {
	if src != c.src {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.trees == nil {
		c.trees = map[string]*fiber.Tensor{}
	}
	c.trees[sig] = ft
}

// replayCalls replays one operation in process under root, one span per
// public call: decoding its request body, parsing its statement, binding
// its operands and running the comp engine on them. It returns the comp
// engine's output.
func replayCalls(rec *recorder, op int, root int64, body []byte, c *compiled, in tensorMap) (*tensor.COO, error) {
	var req serve.EvaluateRequest
	if err := rec.timedAllocs(op, root, "serve.wire_decode", func() error { return json.Unmarshal(body, &req) }); err != nil {
		return nil, err
	}
	if err := rec.timed(op, root, "lang.parse", func() error { _, err := lang.Parse(req.Expr); return err }); err != nil {
		return nil, err
	}
	var bound map[string]*fiber.Tensor
	if err := rec.timedAllocs(op, root, "bind.operands", func() (err error) {
		bound, err = c.plan.Operands(in)
		return err
	}); err != nil {
		return nil, err
	}
	dims, err := c.plan.OutputDims(in)
	if err != nil {
		return nil, err
	}
	var out *tensor.COO
	err = rec.timedAllocs(op, root, "comp.run", func() (err error) {
		out, err = c.comp.Run(bound, dims)
		return err
	})
	return out, err
}

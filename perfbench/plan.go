package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/client"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/service/api"
)

// planShards is the in-process fleet size, as `cmd/serve -shards 2`.
const planShards = 2

// Setup repetitions: setup_s is the median of this many set-ups.
const (
	coldSetupReps = 10001
	hotSetupReps  = 61
)

// Stream sizes. plan-cold never reuses a key and sends a fixed number of
// requests per run (see measuredPhase); plan-hot wraps around its
// (already repeating) draws.
const (
	coldRequestsPerSecond = 3000
	hotStreamLen          = 1 << 20
	coldTracedRequests    = 1500
	hotTracedRequests     = 40000
	coldLibrarySample     = 64 // every 64th plan-cold request is byte-compared
)

// expectedRate is a generous per-client request rate, used to size
// the latency buffers before a timed phase. A client that outran its
// buffer would grow it during the phase, and peak_heap_mb would count
// the copy; plan-hot clients have reached 48 000 requests/s each.
func (w *planWorkload) expectedRate() int {
	if w.hot != nil {
		return 100000
	}
	return coldRequestsPerSecond
}

// measuredPhase is the untraced closed loop of a run, starting at stream
// position from and standing for secs seconds. plan-hot runs for secs
// seconds. plan-cold sends coldRequestsPerSecond requests per second
// instead, 0.5–1.3 times secs seconds of work on a 2-vCPU host as its
// speed varies: whether a
// request fails (the brute-force defect) depends on the request alone,
// so a fixed count makes attempted and failed repeat exactly for a seed.
func (w *planWorkload) measuredPhase(from int, secs float64) loopSpec {
	if w.hot != nil {
		return loopSpec{from: from, duration: time.Duration(secs * float64(time.Second))}
	}
	return loopSpec{from: from, count: int(secs * coldRequestsPerSecond)}
}

// wrapFn optionally wraps a handler (the traced run's timing layer).
type wrapFn func(layer string, h http.Handler) http.Handler

// newPlanFleet builds the system under test — a service.Frontend over
// planShards in-process service.New backends, as cmd/serve wires it —
// and returns the frontend. wrap, when non-nil, wraps the frontend and
// every backend handler.
func newPlanFleet(wrap wrapFn) (http.Handler, error) {
	if wrap == nil {
		wrap = func(_ string, h http.Handler) http.Handler { return h }
	}
	refs := make([]service.BackendRef, planShards)
	for i := range refs {
		refs[i] = service.BackendRef{
			Name:    "shard-" + strconv.Itoa(i),
			Handler: wrap(layerBackend, service.New(service.Config{})),
		}
	}
	fe, err := service.NewFrontend(service.FrontendConfig{Backends: refs})
	if err != nil {
		return nil, err
	}
	return wrap(layerFrontend, fe), nil
}

// newClient returns a client of the fleet through client.HandlerTransport.
// Retries are off: a failed request is data, never retried.
func newClient(fleet http.Handler) (*client.Client, error) {
	return client.New(client.Config{
		BaseURL:    "http://fleet",
		HTTPClient: &http.Client{Transport: client.HandlerTransport(fleet)},
		MaxRetries: -1,
	})
}

// planWorkload is a prepared plan-cold or plan-hot run.
type planWorkload struct {
	name   string
	cold   []planReq    // plan-cold stream
	hot    *hotGrid     // plan-hot key space
	hotSeq []int32      // plan-hot stream: indices into hot.bodies
	fleet  http.Handler // the frontend of the system under test
	wrap   wrapFn       // how the fleet's handlers are wrapped
	// lat holds one latency buffer per client, sized for an untraced phase
	// before the fleet is built, and heapBase the live heap then: the
	// benchmark's own inputs and buffers, which peak_heap_mb leaves out.
	lat      [][]float64
	heapBase uint64
}

// preparePlan generates the workload's inputs from seed, sizes the
// latency buffers for a timed phase of secs seconds, and sets the fleet
// up.
func preparePlan(name string, seed uint64, secs int, wrap wrapFn) (*planWorkload, error) {
	w := &planWorkload{name: name, wrap: wrap}
	if name == wlPlanHot {
		g, err := newHotGrid()
		if err != nil {
			return nil, err
		}
		w.hot = g
		w.hotSeq = hotSequence(g, seed, hotStreamLen)
	} else {
		n := secs*coldRequestsPerSecond + coldTracedRequests
		reqs, err := coldRequests(seed, n)
		if err != nil {
			return nil, err
		}
		w.cold = reqs
	}
	w.lat = make([][]float64, runtime.NumCPU())
	for k := range w.lat {
		w.lat[k] = make([]float64, 0, secs*w.expectedRate())
	}
	w.heapBase = liveHeap()
	fleet, err := w.setUp()
	if err != nil {
		return nil, err
	}
	w.fleet = fleet
	return w, nil
}

// setUp builds a fleet and, for plan-hot, warms its caches.
func (w *planWorkload) setUp() (http.Handler, error) {
	fleet, err := newPlanFleet(w.wrap)
	if err != nil {
		return nil, err
	}
	if w.hot != nil {
		n, err := service.Warm(context.Background(), fleet, w.hot.canonical)
		if err != nil {
			return nil, fmt.Errorf("warmup: %w", err)
		}
		if n != len(w.hot.canonical) {
			return nil, fmt.Errorf("warmup: %d of %d keys warmed", n, len(w.hot.canonical))
		}
	}
	return fleet, nil
}

// timeSetUps sets a fleet up several times and returns the median
// seconds. It runs right after the measured phase, so that every run
// times its set-ups in the same state: the host just loaded by the
// phase, the run's fleet released. Timed at the start of a run instead,
// plan-cold's set-up read about 80 µs in some runs and about 135 µs in
// others of one ten-seed round.
func (w *planWorkload) timeSetUps() (float64, error) {
	reps := coldSetupReps
	if w.hot != nil {
		reps = hotSetupReps
	}
	w.fleet = nil
	runtime.GC()
	secs := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		t0 := now()
		if _, err := w.setUp(); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return median(secs), nil
}

// hotSequence draws n plan-hot requests (Zipf key, uniform spelling)
// from one seeded stream.
func hotSequence(g *hotGrid, seed uint64, n int) []int32 {
	src := rng.New(seed)
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(g.draw(src))
	}
	return out
}

// request returns stream position i.
func (w *planWorkload) request(i int) planReq {
	if w.hot != nil {
		return w.hot.request(int(w.hotSeq[i%len(w.hotSeq)]))
	}
	return w.cold[i]
}

// loopResult aggregates one closed-loop phase.
type loopResult struct {
	latMS      []float64 // per successful request
	attempted  int
	ok         int
	failed     int // non-200, transport error, or invalid body
	incorrect  int // 200 responses that failed validation
	elapsed    time.Duration
	peakHeapMB float64 // live heap above the baseline when the phase ends
	cpuShare   float64 // process CPU time over wall time, a host diagnostic
	sampled    []sampledResp
	traces     []*reqTrace // traced phase only
	problems   []string
	firstBody  map[int]uint64 // plan-hot: hash of the first body seen per key
	errorCodes map[string]int
}

// sampledResp is a plan-cold response kept for the library comparison:
// its status and the hash of its body.
type sampledResp struct {
	req    planReq
	status int
	hash   uint64
}

// bodySeed keys bodyHash for the life of the process.
var bodySeed = maphash.MakeSeed()

// bodyHash hashes a response body, so the checks keep 8 bytes per body
// rather than the body.
func bodyHash(b []byte) uint64 { return maphash.Bytes(bodySeed, b) }

// loopSpec bounds a closed-loop phase by time or by request count.
type loopSpec struct {
	from     int           // first stream position
	count    int           // > 0: stop after this many requests
	duration time.Duration // > 0: stop at this deadline
	trace    bool          // record per-request spans
}

// maxProblems bounds how many failure descriptions a phase keeps.
const maxProblems = 8

// runLoop drives the fleet closed-loop with one client per core.
func (w *planWorkload) runLoop(ls loopSpec) (*loopResult, error) {
	workers := runtime.NumCPU()
	clients := make([]*client.Client, workers)
	for i := range clients {
		c, err := newClient(w.fleet)
		if err != nil {
			return nil, err
		}
		clients[i] = c
	}
	parts := make([]*loopResult, workers)
	var next atomic.Int64
	next.Store(int64(ls.from))
	for k := range parts {
		parts[k] = &loopResult{firstBody: map[int]uint64{}, errorCodes: map[string]int{}}
		if !ls.trace && k < len(w.lat) {
			parts[k].latMS = w.lat[k][:0]
		}
	}
	runtime.GC()
	c0, start := cpuTime(), now()
	deadline := start.Add(ls.duration)
	var wg sync.WaitGroup
	for k, res := range parts {
		wg.Add(1)
		go func(c *client.Client, res *loopResult) {
			defer wg.Done()
			ctx := context.Background()
			for {
				i := int(next.Add(1) - 1)
				if ls.count > 0 && i >= ls.from+ls.count {
					return
				}
				if ls.duration > 0 && !now().Before(deadline) {
					return
				}
				w.doRequest(ctx, c, res, ls, i, w.request(i))
			}
		}(clients[k], res)
	}
	wg.Wait()
	elapsed := time.Since(start)
	cpuShare := float64(cpuTime()-c0) / float64(elapsed)
	// The heap the fleet holds once the clients have stopped: its caches
	// and whatever else it retains. Nothing the fleet keeps is released
	// during a phase (the caches fill and stay full), so this is the peak
	// of the reachable heap, less the requests in flight. Sampling the
	// live heap during the phase instead counts the garbage allocated
	// while each collection marks, which follows the request rate.
	peak := heapAbove(liveHeap(), w.heapBase)

	total := &loopResult{elapsed: elapsed, peakHeapMB: peak, cpuShare: cpuShare,
		firstBody: map[int]uint64{}, errorCodes: map[string]int{}}
	for _, p := range parts {
		total.latMS = append(total.latMS, p.latMS...)
		total.attempted += p.attempted
		total.ok += p.ok
		total.failed += p.failed
		total.incorrect += p.incorrect
		total.sampled = append(total.sampled, p.sampled...)
		total.traces = append(total.traces, p.traces...)
		for code, n := range p.errorCodes {
			total.errorCodes[code] += n
		}
		total.problems = appendProblems(total.problems, p.problems...)
		// Every client must have seen the same bytes for a key.
		for key, b := range p.firstBody {
			if prev, ok := total.firstBody[key]; ok && prev != b {
				total.incorrect++
				total.problems = appendProblems(total.problems,
					fmt.Sprintf("key %d: clients received different bytes", key))
				continue
			}
			total.firstBody[key] = b
		}
	}
	return total, nil
}

func appendProblems(dst []string, ps ...string) []string {
	for _, p := range ps {
		if len(dst) < maxProblems {
			dst = append(dst, p)
		}
	}
	return dst
}

// doRequest sends one request, times it, and checks the response.
func (w *planWorkload) doRequest(ctx context.Context, c *client.Client, res *loopResult, ls loopSpec, i int, req planReq) {
	var rt *reqTrace
	if ls.trace {
		rt = &reqTrace{id: i, req: req}
		ctx = context.WithValue(ctx, traceKey{}, rt)
	}
	t0 := now()
	raw, err := c.PostRaw(ctx, req.path, req.body, "")
	t1 := now()
	res.attempted++
	if rt != nil {
		rt.client = spanTimes{t0, t1}
		res.traces = append(res.traces, rt)
	}
	fail := func(why string) {
		res.failed++
		res.problems = appendProblems(res.problems, why)
	}
	succeed := func() {
		res.ok++
		res.latMS = append(res.latMS, millis(t1.Sub(t0)))
	}
	if err != nil {
		res.errorCodes["transport"]++
		fail(fmt.Sprintf("request %d: %v", i, err))
		return
	}
	if rt != nil {
		rt.status = raw.Status
	}
	if w.cold != nil && i%coldLibrarySample == 0 {
		res.sampled = append(res.sampled, sampledResp{req: req, status: raw.Status, hash: bodyHash(raw.Body)})
	}
	if raw.Status != http.StatusOK {
		var e api.ErrorResponse
		_ = json.Unmarshal(raw.Body, &e) // the message is diagnostic only
		res.errorCodes[e.Error.Code]++
		fail(fmt.Sprintf("request %d (%s %s): status %d %s: %s", i, req.path, req.body, raw.Status, e.Error.Code, e.Error.Message))
		return
	}
	if w.hot != nil {
		if prev, ok := res.firstBody[req.key]; ok {
			if prev != bodyHash(raw.Body) {
				res.incorrect++
				fail(fmt.Sprintf("request %d: key %d answered with different bytes", i, req.key))
				return
			}
			succeed()
			return
		}
	}
	if err := checkBody(req.path, raw.Body); err != nil {
		res.incorrect++
		fail(fmt.Sprintf("request %d (%s %s): invalid response: %v", i, req.path, req.body, err))
		return
	}
	if w.hot != nil {
		res.firstBody[req.key] = bodyHash(raw.Body)
	}
	succeed()
}

// checkBody validates a 200 response: it decodes strictly, every cost
// is finite, and the reservations are finite and strictly increasing.
func checkBody(path string, body []byte) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var plan repro.PlanSummary
	var extra []float64
	if path == api.PathSimulate {
		var r api.SimulateResponse
		if err := dec.Decode(&r); err != nil {
			return fmt.Errorf("decode: %w", err)
		}
		plan = r.Plan
		extra = []float64{r.NormalizedCost, r.StdErr}
	} else {
		var r api.PlanResponse
		if err := dec.Decode(&r); err != nil {
			return fmt.Errorf("decode: %w", err)
		}
		plan = r.Plan
		if r.Stats != nil {
			extra = []float64{r.Stats.ExpectedAttempts, r.Stats.ExpectedReserved, r.Stats.ExpectedUsed, r.Stats.Utilization}
		}
	}
	for _, v := range append([]float64{plan.ExpectedCost, plan.NormalizedCost}, extra...) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("non-finite cost %v", v)
		}
	}
	if len(plan.Reservations) == 0 {
		return fmt.Errorf("empty reservation sequence")
	}
	prev := 0.0
	for k, r := range plan.Reservations {
		if math.IsNaN(r) || math.IsInf(r, 0) || r <= prev {
			return fmt.Errorf("reservation %d = %v does not increase past %v", k, r, prev)
		}
		prev = r
	}
	return nil
}

// libraryCheck recomputes sampled plan-cold responses through the
// library path (Planner.Plan(...).Summary()) and byte-compares them. A
// request the service refused must fail in the library too. It returns
// the number compared and the mismatches.
func libraryCheck(sampled []sampledResp) (int, []string) {
	var bad []string
	for _, s := range sampled {
		want, err := libraryResponse(s.req)
		switch {
		case err != nil && s.status == http.StatusOK:
			bad = append(bad, fmt.Sprintf("%s: library failed (%v) but the service answered 200", s.req.body, err))
		case err == nil && s.status != http.StatusOK:
			bad = append(bad, fmt.Sprintf("%s: service answered %d but the library succeeded", s.req.body, s.status))
		case err == nil && bodyHash(want) != s.hash:
			bad = append(bad, fmt.Sprintf("%s: response differs from the library path", s.req.body))
		}
	}
	return len(sampled), bad
}

// libraryResponse renders the response the service should send for
// req, computed through the public repro API.
func libraryResponse(req planReq) ([]byte, error) {
	var sim api.SimulateRequest
	if err := json.Unmarshal(req.body, &sim); err != nil {
		return nil, err
	}
	p, spec, err := libraryPlan(sim.PlanRequest)
	if err != nil {
		return nil, err
	}
	var resp any
	if req.path == api.PathSimulate {
		norm, stderr, err := p.Simulate(sim.Samples, sim.SimSeed)
		if err != nil {
			return nil, err
		}
		resp = api.SimulateResponse{Plan: p.Summary(), CanonicalSpec: spec, Samples: sim.Samples,
			SimSeed: sim.SimSeed, NormalizedCost: norm, StdErr: stderr}
	} else {
		r := api.PlanResponse{Plan: p.Summary(), CanonicalSpec: spec}
		if st, err := p.Stats(); err == nil {
			r.Stats = &api.PlanStats{ExpectedAttempts: st.ExpectedAttempts, ExpectedReserved: st.ExpectedReserved,
				ExpectedUsed: st.ExpectedUsed, Utilization: st.Utilization}
		}
		resp = r
	}
	b, err := json.MarshalIndent(resp, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// libraryPlan computes req's plan with a fresh Planner.
func libraryPlan(req api.PlanRequest) (*repro.Plan, string, error) {
	d, err := repro.ParseDistribution(req.Distribution)
	if err != nil {
		return nil, "", err
	}
	spec, err := repro.DistributionSpec(d)
	if err != nil {
		return nil, "", err
	}
	pl, err := repro.NewPlanner(plannerArgs(req))
	if err != nil {
		return nil, "", err
	}
	strat := req.Strategy
	if strat == "" {
		strat = repro.StrategyBruteForce
	}
	p, err := pl.Plan(d, strat)
	return p, spec, err
}

// plannerArgs maps a wire request to Planner arguments the way the
// backend does: inline computation (Workers = 1).
func plannerArgs(req api.PlanRequest) (repro.CostModel, repro.Options) {
	m := repro.CostModel{Alpha: req.CostModel.Alpha, Beta: req.CostModel.Beta, Gamma: req.CostModel.Gamma}
	o := req.Options
	return m, repro.Options{GridM: o.GridM, SamplesN: o.SamplesN, DiscN: o.DiscN, Epsilon: o.Epsilon,
		Seed: o.Seed, MonteCarlo: o.MonteCarlo, PreviewLen: o.PreviewLen, MaxAttempts: o.MaxAttempts, Workers: 1}
}

// runPlan runs a plan workload untraced and reports the end-to-end
// metrics.
func runPlan(name string, seed uint64, secs int) (*result, error) {
	w, err := preparePlan(name, seed, secs, nil)
	if err != nil {
		return nil, err
	}
	lr, err := w.runLoop(w.measuredPhase(0, float64(secs)))
	if err != nil {
		return nil, err
	}
	setup, err := w.timeSetUps()
	if err != nil {
		return nil, err
	}
	res := newResult()
	w.finishChecks(lr, res)
	w.addPlanMetrics(lr, setup, float64(secs)*1000, res)
	res.attempted = lr.attempted
	res.failed = lr.failed
	return res, nil
}

// finishChecks runs the untimed output checks on a finished phase.
func (w *planWorkload) finishChecks(lr *loopResult, res *result) {
	if lr.incorrect > 0 {
		res.fail(fmt.Sprintf("%d responses failed validation", lr.incorrect))
	}
	for _, p := range lr.problems {
		res.note(p)
	}
	if w.cold != nil {
		n, bad := libraryCheck(lr.sampled)
		res.note(fmt.Sprintf("library byte-compare: %d sampled responses, %d mismatches", n, len(bad)))
		for _, b := range bad {
			res.fail(b)
		}
	}
}

// addPlanMetrics derives the end-to-end metrics of a closed-loop phase
// over all its requests. Throughput is successful requests per wall
// second of the phase. A failed request counts as missing every latency
// bound: it enters the latency percentiles with penaltyMS, the length
// of the whole run, so it moves them once failures pass the
// percentile's tail share.
func (w *planWorkload) addPlanMetrics(lr *loopResult, setup, penaltyMS float64, res *result) {
	lat := lr.latMS
	for i := 0; i < lr.failed; i++ {
		lat = append(lat, penaltyMS)
	}
	res.add("setup_s", setup, "s")
	res.add("throughput_rps", float64(lr.ok)/lr.elapsed.Seconds(), "1/s")
	res.add("latency_p50_ms", quantile(lat, 0.50), "ms")
	res.add("latency_p99_ms", quantile(lat, 0.99), "ms")
	res.add("success_rate", float64(lr.ok)/float64(lr.attempted), "ratio")
	res.add("peak_heap_mb", lr.peakHeapMB, "MiB")
	res.note(fmt.Sprintf("%s: %d requests in %.2fs, %d ok, %d failed (error_rate %.3g), codes %v; process CPU time over wall time %.2f",
		w.name, lr.attempted, lr.elapsed.Seconds(), lr.ok, lr.failed,
		float64(lr.failed)/float64(lr.attempted), lr.errorCodes, lr.cpuShare))
}

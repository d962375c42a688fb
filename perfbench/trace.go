package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/discretize"
	"repro/internal/simulate"
	"repro/internal/strategy"
	"repro/service/api"
)

// Layer names of the traced plan path.
const (
	layerClient   = "client"
	layerFrontend = "frontend"
	layerBackend  = "backend"
)

// maxSpanRequests bounds how many requests' individual spans the traced
// run writes out; beyond it (plan-hot sends ~10^5) layers are kept only
// as busy time plus a count.
const maxSpanRequests = 10000

// layerMetric names one per-layer metric and its unit.
type layerMetric struct{ name, unit string }

// layerMetrics lists every per-layer metric, in report order.
func layerMetrics() []layerMetric {
	ls := []layerMetric{
		{"service.frontend_self_us", "us"},
		{"service.backend_hit_us", "us"},
		{"service.backend_miss_ms", "ms"},
		{"service.hit_ratio", "ratio"},
		{"service.misses", "count"},
		{"service.coalesced", "count"},
		{"service.errors", "count"},
		{"api.decode_us", "us"},
		{"api.encode_us", "us"},
		{"repro.canonicalize_us", "us"},
		{"repro.new_planner_us", "us"},
		{"repro.plan_ms", "ms"},
		{"discretize.build_ms", "ms"},
		{"simulate.workload_build_ms", "ms"},
	}
	for _, s := range repro.Strategies() {
		ls = append(ls, layerMetric{"strategy.search_ms." + s, "ms"})
	}
	return append(ls,
		layerMetric{"strategy.candidates_scored", "count"},
		layerMetric{"dp.support_n", "count"},
		layerMetric{"simulate.eval_ms", "ms"},
		layerMetric{"cluster.generate_s", "s"},
		layerMetric{"cluster.simulate_self_s", "s"},
		layerMetric{"cluster.events_per_job", "count"},
		layerMetric{"cluster.backfilled_share", "ratio"},
		layerMetric{"cluster.attempts_per_job", "count"},
		layerMetric{"cluster.mean_queue_len", "count"},
		layerMetric{"cluster.record_s", "s"},
		layerMetric{"cluster.stats_s", "s"},
		layerMetric{"cluster.utilization", "ratio"},
		layerMetric{"cluster.mean_wait", "time"},
		layerMetric{"trace.overhead_pct", "%"},
		layerMetric{"trace.unexplained_pct", "%"},
	)
}

// spanTimes is one span's interval.
type spanTimes struct{ start, end time.Time }

func (s spanTimes) dur() time.Duration { return s.end.Sub(s.start) }

// reqTrace holds one traced request's spans. The request runs on one
// client goroutine end to end (HandlerTransport calls the frontend,
// which calls the backend, synchronously), so no locking is needed.
type reqTrace struct {
	id       int
	req      planReq
	status   int
	client   spanTimes
	frontend spanTimes
	backend  spanTimes
	hops     int    // backend calls (more than one only on failover)
	cache    string // X-Cache verdict of the last backend call
}

// traceKey carries a *reqTrace in the request context.
type traceKey struct{}

// timingHandler wraps h with a span for layer. Requests without a
// trace in their context pass straight through.
func timingHandler(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rt, _ := r.Context().Value(traceKey{}).(*reqTrace)
		if rt == nil {
			h.ServeHTTP(w, r)
			return
		}
		t0 := now()
		h.ServeHTTP(w, r)
		sp := spanTimes{t0, now()}
		if layer == layerFrontend {
			rt.frontend = sp
			return
		}
		rt.backend = sp
		rt.hops++
		rt.cache = w.Header().Get(api.HeaderCache)
	})
}

// busy accumulates a layer's time and call count.
type busy struct {
	total time.Duration
	n     int
}

func (b *busy) add(d time.Duration) { b.total += d; b.n++ }

// mean returns the mean per call in the given unit (0 when never called).
func (b *busy) mean(unit time.Duration) float64 {
	if b.n == 0 {
		return 0
	}
	return float64(b.total) / float64(b.n) / float64(unit)
}

// replayed is one request's walk through the backend's layers.
type replayed struct {
	decode, canon, newPlanner, build, search, plan, eval, encode time.Duration
	buildLayer                                                   string // "discretize" or "workload" when a build ran
	strategy                                                     string
	candidates                                                   int
	support                                                      int
	full                                                         bool // the miss path ran (plan, encode)
}

// sum is the replayed backend time: the layers the backend runs in
// sequence. build and search are nested inside plan.
func (r replayed) sum() time.Duration {
	return r.decode + r.canon + r.newPlanner + r.plan + r.eval + r.encode
}

// replay times one request through the public function of every layer
// the backend runs for it. Hits stop after the planner lookup; misses
// then build, search, plan, evaluate and encode. Build and search are
// timed on their own and again inside Planner.Plan (a fresh Planner, so
// nothing is cached), whose remaining self time is the facade's.
func replay(req planReq, miss bool) (replayed, error) {
	var out replayed
	t := now()
	lap := func() time.Duration { t1 := now(); d := t1.Sub(t); t = t1; return d }

	var sim api.SimulateRequest
	dec := json.NewDecoder(bytes.NewReader(req.body))
	dec.DisallowUnknownFields()
	var target any = &sim.PlanRequest
	if req.path == api.PathSimulate {
		target = &sim
	}
	if err := dec.Decode(target); err != nil {
		return out, err
	}
	out.decode = lap()
	d, err := repro.ParseDistribution(sim.Distribution)
	if err != nil {
		return out, err
	}
	spec, err := repro.DistributionSpec(d)
	if err != nil {
		return out, err
	}
	out.canon = lap()
	pl, err := repro.NewPlanner(plannerArgs(sim.PlanRequest))
	if err != nil {
		return out, err
	}
	out.newPlanner = lap()
	if !miss {
		return out, nil
	}
	out.full = true
	out.strategy = sim.Strategy
	if out.strategy == "" {
		out.strategy = repro.StrategyBruteForce
	}
	if err := replaySearch(&out, pl, d); err != nil {
		return out, err
	}
	t = now()
	p, err := pl.Plan(d, out.strategy)
	if err != nil {
		return out, err
	}
	summary := p.Summary()
	var payload any
	if req.path == api.PathSimulate {
		out.plan = lap()
		norm, stderr, err := p.Simulate(sim.Samples, sim.SimSeed)
		if err != nil {
			return out, err
		}
		out.eval = lap()
		payload = api.SimulateResponse{Plan: summary, CanonicalSpec: spec, Samples: sim.Samples,
			SimSeed: sim.SimSeed, NormalizedCost: norm, StdErr: stderr}
	} else {
		resp := api.PlanResponse{Plan: summary, CanonicalSpec: spec}
		if st, err := p.Stats(); err == nil {
			resp.Stats = &api.PlanStats{ExpectedAttempts: st.ExpectedAttempts, ExpectedReserved: st.ExpectedReserved,
				ExpectedUsed: st.ExpectedUsed, Utilization: st.Utilization}
		}
		out.plan = lap()
		payload = resp
	}
	if _, err := json.MarshalIndent(payload, "", "  "); err != nil {
		return out, err
	}
	out.encode = lap()
	return out, nil
}

// replaySearch times the build and search layers for the request's
// strategy, resolved exactly as the facade resolves it.
func replaySearch(out *replayed, pl *repro.Planner, d repro.Distribution) error {
	o := pl.Options()
	m := pl.CostModel()
	mode := strategy.EvalAnalytic
	if o.MonteCarlo {
		mode = strategy.EvalMonteCarlo
	}
	bf := strategy.BruteForce{M: o.GridM, N: o.SamplesN, Mode: mode, Seed: o.Seed, Workers: o.Workers}
	var err error
	switch out.strategy {
	case repro.StrategyBruteForce:
		var wl *simulate.Workload
		if o.MonteCarlo {
			t0 := now()
			wl = simulate.NewWorkloadFrom(d, o.SamplesN, o.Seed)
			out.build, out.buildLayer = time.Since(t0), "workload"
		}
		t0 := now()
		var res strategy.SearchResult
		res, err = bf.SearchOn(m, d, wl)
		out.search = time.Since(t0)
		out.candidates = len(res.Candidates)
	case repro.StrategyRefined:
		t0 := now()
		var res strategy.SearchResult
		res, err = strategy.RefinedBruteForce{Coarse: bf}.Search(m, d)
		out.search = time.Since(t0)
		out.candidates = len(res.Candidates)
	case repro.StrategyEqualTime, repro.StrategyEqualProb:
		s := strategy.Discretized{Scheme: discretize.EqualProbability, N: o.DiscN, Epsilon: o.Epsilon, MaxAttempts: o.MaxAttempts}
		if out.strategy == repro.StrategyEqualTime {
			s.Scheme = discretize.EqualTime
		}
		t0 := now()
		dd, derr := s.Discretize(d)
		out.build, out.buildLayer = time.Since(t0), "discretize"
		if derr != nil {
			return derr
		}
		out.support = dd.Len()
		t0 = now()
		_, err = s.SequenceOn(m, d, dd)
		out.search = time.Since(t0)
	default:
		heuristics := map[string]strategy.Strategy{
			repro.StrategyMeanByMean:     strategy.MeanByMean{},
			repro.StrategyMeanStdev:      strategy.MeanStdev{},
			repro.StrategyMeanDoubling:   strategy.MeanDoubling{},
			repro.StrategyMedianByMedian: strategy.MedianByMedian{},
		}
		h, ok := heuristics[out.strategy]
		if !ok {
			return fmt.Errorf("unknown strategy %q", out.strategy)
		}
		t0 := now()
		_, err = h.Sequence(m, d)
		out.search = time.Since(t0)
	}
	return err
}

// replayAll replays every served traced request on one goroutine per
// core — the concurrency the closed loop ran at, so the replayed layers
// see comparable contention. A miss replays the full path; a hit stops
// after the planner lookup. It returns the first replay error.
func replayAll(traces []*reqTrace) ([]replayed, error) {
	out := make([]replayed, len(traces))
	errs := make([]error, len(traces))
	workers := runtime.NumCPU()
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < len(traces); i += workers {
				out[i], errs[i] = replay(traces[i].req, traces[i].cache == "miss")
			}
		}(k)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return out, fmt.Errorf("replay of %s %s: %w", traces[i].req.path, traces[i].req.body, err)
		}
	}
	return out, nil
}

// tracePlan is the traced run of a plan workload: a fixed number of
// traced requests, with the frontend and every backend wrapped in timing
// handlers; then an untraced closed loop for half a run's measured phase
// (the reference for the tracing overhead); then a replay of each traced
// request through the backend's layers.
func tracePlan(name string, seed uint64, secs int, outDir string, report io.Writer) (*result, error) {
	w, err := preparePlan(name, seed, secs, timingHandler)
	if err != nil {
		return nil, err
	}
	// The set-ups warm the process (its heap and allocator) before the
	// traced requests, which run first: traced from a cold start, the
	// first plan-cold requests took twice as long as the untraced ones
	// after them, and the tracing overhead read 100 %.
	if _, err := w.timeSetUps(); err != nil {
		return nil, err
	}
	if w.fleet, err = w.setUp(); err != nil {
		return nil, err
	}
	res := newResult()
	count := coldTracedRequests
	if w.hot != nil {
		count = hotTracedRequests
	}
	traced, err := w.runLoop(loopSpec{count: count, trace: true})
	if err != nil {
		return nil, err
	}
	plain, err := w.runLoop(w.measuredPhase(count, float64(secs)/2))
	if err != nil {
		return nil, err
	}
	w.finishChecks(traced, res)
	w.finishChecks(plain, res)
	res.attempted = traced.attempted + plain.attempted
	res.failed = traced.failed + plain.failed

	var cli, fe, hit, miss, coal busy
	errs := 0
	sort.Slice(traced.traces, func(i, k int) bool { return traced.traces[i].id < traced.traces[k].id })
	var served []*reqTrace
	for _, rt := range traced.traces {
		cli.add(rt.client.dur() - rt.frontend.dur())
		fe.add(rt.frontend.dur() - rt.backend.dur())
		if rt.status != http.StatusOK {
			errs++
			continue
		}
		switch rt.cache {
		case "hit":
			hit.add(rt.backend.dur())
		case "coalesced":
			coal.add(rt.backend.dur())
		default:
			miss.add(rt.backend.dur())
		}
		served = append(served, rt)
	}
	replays, err := replayAll(served)
	if err != nil {
		res.fail(err.Error())
	}
	var layers struct {
		decode, encode, canon, newPlanner, plan, build, workload, eval busy
		search                                                         map[string]*busy
		candidates, support, supportN                                  int
		replaySum, backendSum                                          time.Duration
	}
	layers.search = map[string]*busy{}
	for _, s := range repro.Strategies() {
		layers.search[s] = &busy{}
	}
	for i, rp := range replays {
		rt := served[i]
		layers.decode.add(rp.decode)
		layers.canon.add(rp.canon)
		layers.newPlanner.add(rp.newPlanner)
		layers.replaySum += rp.sum()
		layers.backendSum += rt.backend.dur()
		if !rp.full {
			continue
		}
		layers.encode.add(rp.encode)
		layers.plan.add(max(rp.plan-rp.build-rp.search, 0))
		layers.search[rp.strategy].add(rp.search)
		layers.candidates += rp.candidates
		switch rp.buildLayer {
		case "discretize":
			layers.build.add(rp.build)
			layers.support += rp.support
			layers.supportN++
		case "workload":
			layers.workload.add(rp.build)
		}
		if rt.req.path == api.PathSimulate {
			layers.eval.add(rp.eval)
		}
	}

	nServed := hit.n + miss.n + coal.n
	res.add("service.frontend_self_us", fe.mean(time.Microsecond), "us")
	res.add("service.backend_hit_us", hit.mean(time.Microsecond), "us")
	res.add("service.backend_miss_ms", miss.mean(time.Millisecond), "ms")
	res.add("service.hit_ratio", float64(hit.n)/float64(max(nServed, 1)), "ratio")
	res.add("service.misses", float64(miss.n), "count")
	res.add("service.coalesced", float64(coal.n), "count")
	res.add("service.errors", float64(errs), "count")
	res.add("api.decode_us", layers.decode.mean(time.Microsecond), "us")
	res.add("api.encode_us", layers.encode.mean(time.Microsecond), "us")
	res.add("repro.canonicalize_us", layers.canon.mean(time.Microsecond), "us")
	res.add("repro.new_planner_us", layers.newPlanner.mean(time.Microsecond), "us")
	res.add("repro.plan_ms", layers.plan.mean(time.Millisecond), "ms")
	res.add("discretize.build_ms", layers.build.mean(time.Millisecond), "ms")
	res.add("simulate.workload_build_ms", layers.workload.mean(time.Millisecond), "ms")
	for s, b := range layers.search {
		res.add("strategy.search_ms."+s, b.mean(time.Millisecond), "ms")
	}
	res.add("strategy.candidates_scored", float64(layers.candidates), "count")
	res.add("dp.support_n", float64(layers.support)/float64(max(layers.supportN, 1)), "count")
	res.add("simulate.eval_ms", layers.eval.mean(time.Millisecond), "ms")

	// Overhead: mean latency of the traced requests against the
	// untraced half of the run. Unexplained: the share of the traced
	// end-to-end time the client, frontend and replayed backend layers
	// leave unaccounted for.
	meanLat := func(lr *loopResult) float64 {
		s := 0.0
		for _, v := range lr.latMS {
			s += v
		}
		return s / float64(len(lr.latMS))
	}
	tracedMS, plainMS := meanLat(traced), meanLat(plain)
	e2e := cli.total + fe.total + hit.total + miss.total + coal.total
	explained := cli.total + fe.total + layers.replaySum
	res.add("trace.overhead_pct", 100*(tracedMS-plainMS)/plainMS, "%")
	unexplained := 100 * math.Abs(float64(e2e-explained)) / float64(e2e)
	res.add("trace.unexplained_pct", unexplained, "%")

	fmt.Fprintf(report, "traced run: %s seed %d — %d traced requests, %d untraced in %.2fs\n",
		name, seed, traced.attempted, plain.attempted, plain.elapsed.Seconds())
	fmt.Fprintf(report, "%-34s %12s %10s %14s\n", "layer (self time)", "mean", "count", "total")
	row := func(n string, b *busy, unit time.Duration, u string) {
		fmt.Fprintf(report, "%-34s %9.3f %-2s %10d %12.3fms\n", n, b.mean(unit), u, b.n, millis(b.total))
	}
	row("client (SDK + transport)", &cli, time.Microsecond, "us")
	row("service frontend", &fe, time.Microsecond, "us")
	row("service backend: hit", &hit, time.Microsecond, "us")
	row("service backend: miss", &miss, time.Millisecond, "ms")
	row("service backend: coalesced", &coal, time.Millisecond, "ms")
	row("  api decode (replayed)", &layers.decode, time.Microsecond, "us")
	row("  repro canonicalize (replayed)", &layers.canon, time.Microsecond, "us")
	row("  repro new planner (replayed)", &layers.newPlanner, time.Microsecond, "us")
	row("  discretize build (replayed)", &layers.build, time.Millisecond, "ms")
	row("  simulate workload build (replayed)", &layers.workload, time.Millisecond, "ms")
	for _, s := range repro.Strategies() {
		row("  strategy search "+s, layers.search[s], time.Millisecond, "ms")
	}
	row("  repro plan self (replayed)", &layers.plan, time.Millisecond, "ms")
	row("  simulate eval (replayed)", &layers.eval, time.Millisecond, "ms")
	row("  api encode (replayed)", &layers.encode, time.Microsecond, "us")
	fmt.Fprintf(report, "reconciliation: replayed backend layers %.3fms vs backend spans %.3fms (%.1f%% of backend time unexplained)\n",
		millis(layers.replaySum), millis(layers.backendSum), 100*(1-float64(layers.replaySum)/float64(max(layers.backendSum, 1))))
	fmt.Fprintf(report, "reconciliation: client+frontend+replayed layers %.3fms vs end-to-end %.3fms (%.1f%% apart)\n",
		millis(explained), millis(e2e), unexplained)
	fmt.Fprintf(report, "tracing overhead: mean latency traced %.4fms vs untraced %.4fms (%+.1f%%)\n",
		tracedMS, plainMS, 100*(tracedMS-plainMS)/plainMS)
	path, err := writePlanSpans(outDir, name, seed, traced.traces)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(report, "spans: %s\n", path)
	return res, nil
}

// spanRecord is one line of the spans file.
type spanRecord struct {
	Req    int     `json:"req"`
	Layer  string  `json:"layer"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	Cache  string  `json:"cache,omitempty"`
	Status int     `json:"status,omitempty"`
}

// writePlanSpans writes the first maxSpanRequests traced requests'
// spans as JSON lines, times in microseconds from the first request.
func writePlanSpans(dir, name string, seed uint64, traces []*reqTrace) (string, error) {
	if len(traces) > maxSpanRequests {
		traces = traces[:maxSpanRequests]
	}
	var recs []spanRecord
	if len(traces) > 0 {
		t0 := traces[0].client.start
		us := func(t time.Time) float64 { return micros(t.Sub(t0)) }
		for _, rt := range traces {
			recs = append(recs,
				spanRecord{Req: rt.id, Layer: layerClient, Start: us(rt.client.start), End: us(rt.client.end), Status: rt.status},
				spanRecord{Req: rt.id, Layer: layerFrontend, Parent: layerClient, Start: us(rt.frontend.start), End: us(rt.frontend.end)})
			if rt.hops > 0 {
				recs = append(recs, spanRecord{Req: rt.id, Layer: layerBackend, Parent: layerFrontend,
					Start: us(rt.backend.start), End: us(rt.backend.end), Cache: rt.cache})
			}
		}
	}
	return writeJSONLines(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed), recs)
}

// writeJSONLines writes one JSON value per line to dir/file.
func writeJSONLines[T any](dir, file string, recs []T) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range recs {
		if err := enc.Encode(recs[i]); err != nil {
			_ = f.Close() // the encode error is the one to report
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return "", err
	}
	return path, f.Close()
}

// timedRecorder wraps the trace hash with busy-time accounting. It
// implements cluster.BatchRecorder, so the simulator still hands it
// whole event batches.
type timedRecorder struct {
	inner *cluster.TraceHash
	busy  busy
}

func (t *timedRecorder) Record(ev cluster.Event) {
	t0 := now()
	t.inner.Record(ev)
	t.busy.add(time.Since(t0))
}

func (t *timedRecorder) RecordBatch(evs []cluster.Event) {
	t0 := now()
	t.inner.RecordBatch(evs)
	t.busy.add(time.Since(t0))
}

// timedSink wraps the stats accumulator with busy-time accounting.
type timedSink struct {
	inner *cluster.StatsAccumulator
	busy  busy
}

func (s *timedSink) Add(r cluster.Result) {
	t0 := now()
	s.inner.Add(r)
	s.busy.add(time.Since(t0))
}

// bufferedPass runs the workload through the buffered entry points —
// cluster.GenerateJobs, then cluster.SimulateStream with rec as the
// recorder and sink as the result sink — and times each call.
func bufferedPass(spec cluster.WorkloadSpec, cfg cluster.Config, rec cluster.Recorder, sink cluster.ResultSink) (gen, sim time.Duration, err error) {
	runtime.GC()
	t0 := now()
	jobs, err := cluster.GenerateJobs(spec, 0)
	if err != nil {
		return 0, 0, err
	}
	t1 := now()
	cfg.Recorder = rec
	if err := cluster.SimulateStream(cfg, jobs, sink); err != nil {
		return 0, 0, err
	}
	return t1.Sub(t0), time.Since(t1), nil
}

// fleetSpan is one line of the fleet spans file: a layer's busy time
// and call count within one traced replicate, times in microseconds
// from the start of the traced pass.
type fleetSpan struct {
	Replicate int     `json:"replicate"`
	Layer     string  `json:"layer"`
	Parent    string  `json:"parent,omitempty"`
	Start     float64 `json:"start_us"`
	End       float64 `json:"end_us"`
	BusyUS    float64 `json:"busy_us"`
	Calls     int     `json:"calls"`
}

// fleetLayers is the per-layer time of traced buffered passes.
type fleetLayers struct {
	gen, sim, stats time.Duration // stats: the sink's busy time plus the final Stats call
	rec, sink       busy
}

// tracedPass runs every replicate once through the buffered entry
// points with the trace hash and the stats accumulator wrapped in
// timing layers, adds each layer's time to l, and checks every trace
// hash. It returns the pass's outputs and one span per replicate and
// layer, times in microseconds from the start of the pass.
func tracedPass(sc *fleetScenario, refs []cluster.StreamOutput, l *fleetLayers, res *result) ([]cluster.StreamOutput, []fleetSpan, error) {
	outs := make([]cluster.StreamOutput, len(sc.specs))
	var spans []fleetSpan
	var clock time.Duration
	for r, spec := range sc.specs {
		tr := &timedRecorder{inner: cluster.NewTraceHash()}
		ts := &timedSink{inner: cluster.NewStatsAccumulator()}
		g, s, err := bufferedPass(spec, sc.cfg, tr, ts)
		if err != nil {
			return nil, nil, err
		}
		t0 := now()
		outs[r] = cluster.StreamOutput{Stats: ts.inner.Stats(sc.cfg.Capacity()), TraceEvents: tr.inner.Events()}
		fin := time.Since(t0)
		res.checkHash(r, "traced", tr.inner.Sum64(), refs[r].TraceHash)
		l.gen += g
		l.sim += s
		l.stats += ts.busy.total + fin
		l.rec.total += tr.busy.total
		l.rec.n += tr.busy.n
		l.sink.total += ts.busy.total
		l.sink.n += ts.busy.n
		us := func(d time.Duration) float64 { return micros(clock + d) }
		spans = append(spans,
			fleetSpan{Replicate: r, Layer: "cluster.generate", Start: us(0), End: us(g), BusyUS: micros(g), Calls: 1},
			fleetSpan{Replicate: r, Layer: "cluster.simulate", Start: us(g), End: us(g + s), BusyUS: micros(s - tr.busy.total - ts.busy.total), Calls: 1},
			fleetSpan{Replicate: r, Layer: "cluster.record", Parent: "cluster.simulate", Start: us(g), End: us(g + s), BusyUS: micros(tr.busy.total), Calls: tr.busy.n},
			fleetSpan{Replicate: r, Layer: "cluster.stats", Parent: "cluster.simulate", Start: us(g), End: us(g + s + fin), BusyUS: micros(ts.busy.total + fin), Calls: ts.busy.n + 1})
		clock += g + s + fin
	}
	return outs, spans, nil
}

// plainPass runs every replicate once through the same buffered entry
// points untraced, checks every trace hash, and returns its time.
func plainPass(sc *fleetScenario, refs []cluster.StreamOutput, res *result) (time.Duration, error) {
	var total time.Duration
	for r, spec := range sc.specs {
		hash, acc := cluster.NewTraceHash(), cluster.NewStatsAccumulator()
		gen, sim, err := bufferedPass(spec, sc.cfg, hash, acc)
		if err != nil {
			return 0, err
		}
		t0 := now()
		acc.Stats(sc.cfg.Capacity())
		total += gen + sim + time.Since(t0)
		res.checkHash(r, "buffered", hash.Sum64(), refs[r].TraceHash)
	}
	return total, nil
}

// traceFleet is the traced run of a fleet workload. Until the run's
// time is spent (at least once) it alternates two passes over every
// replicate through the buffered entry points — cluster.GenerateJobs,
// then cluster.SimulateStream — one untraced and one with the trace
// hash and the stats accumulator wrapped in timing layers. Layer times
// are per pass, averaged over the traced passes; the untraced passes
// are the end-to-end reference for the reconciliation and the tracing
// overhead. Every pass must reproduce the reference trace hashes.
func traceFleet(name string, seed uint64, secs int, outDir string, report io.Writer) (*result, error) {
	sc, _, refs, err := prepareFleet(name, seed)
	if err != nil {
		return nil, err
	}
	res := newResult()
	var (
		l      fleetLayers
		plain  time.Duration
		traced []cluster.StreamOutput
		spans  []fleetSpan
		passes int
	)
	deadline := now().Add(time.Duration(secs) * time.Second)
	for passes == 0 || now().Before(deadline) {
		p, err := plainPass(sc, refs, res)
		if err != nil {
			return nil, err
		}
		plain += p
		outs, sp, err := tracedPass(sc, refs, &l, res)
		if err != nil {
			return nil, err
		}
		traced = outs
		if passes == 0 {
			spans = sp // the first traced pass's spans go to the file
		}
		passes++
	}
	per := func(d time.Duration) float64 { return d.Seconds() / float64(passes) }
	total := per(l.gen + l.sim + l.stats - l.sink.total)
	simSelf := per(l.sim - l.rec.total - l.sink.total)
	untraced := per(plain)
	explained := per(l.gen) + simSelf + per(l.rec.total) + per(l.stats)
	st := fleetOutputs(sc, traced)
	res.add("cluster.generate_s", per(l.gen), "s")
	res.add("cluster.simulate_self_s", simSelf, "s")
	res.add("cluster.record_s", per(l.rec.total), "s")
	res.add("cluster.stats_s", per(l.stats), "s")
	res.add("cluster.events_per_job", st.eventsPerJob, "count")
	res.add("cluster.backfilled_share", st.backfilled, "ratio")
	res.add("cluster.attempts_per_job", st.attempts, "count")
	// Little's law: the time-average queue length is the arrival rate
	// times the mean wait.
	res.add("cluster.mean_queue_len", sc.specs[0].ArrivalRate*st.meanWait, "count")
	res.add("cluster.utilization", st.utilization, "ratio")
	res.add("cluster.mean_wait", st.meanWait, "time")
	overhead := 100 * (total - untraced) / untraced
	unexplained := 100 * math.Abs(untraced-explained) / untraced
	res.add("trace.overhead_pct", overhead, "%")
	res.add("trace.unexplained_pct", unexplained, "%")

	fmt.Fprintf(report, "traced run: %s seed %d — %d replicates x %d jobs; %d untraced and %d traced buffered passes\n",
		name, seed, len(sc.specs), sc.specs[0].Jobs, passes, passes)
	fmt.Fprintf(report, "%-28s %12s %12s\n", "layer (self time per pass)", "seconds", "calls")
	fmt.Fprintf(report, "%-28s %12.4f %12d\n", "cluster generate", per(l.gen), len(sc.specs))
	fmt.Fprintf(report, "%-28s %12.4f %12d\n", "cluster event loop (self)", simSelf, len(sc.specs))
	fmt.Fprintf(report, "%-28s %12.4f %12d\n", "cluster recorders", per(l.rec.total), l.rec.n/passes)
	fmt.Fprintf(report, "%-28s %12.4f %12d\n", "cluster stats", per(l.stats), l.sink.n/passes+len(sc.specs))
	fmt.Fprintf(report, "reconciliation: layer self times sum to %.4fs vs untraced buffered pass %.4fs (%.1f%% apart)\n",
		explained, untraced, unexplained)
	fmt.Fprintf(report, "tracing overhead: traced buffered pass %.4fs vs untraced buffered pass %.4fs (%+.1f%%)\n",
		total, untraced, overhead)
	fmt.Fprintf(report, "outputs: utilization %.4f, mean wait %.4f, %.3f events/job, %.4f backfilled, %.4f attempts/job\n",
		st.utilization, st.meanWait, st.eventsPerJob, st.backfilled, st.attempts)
	path, err := writeJSONLines(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed), spans)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(report, "spans: %s\n", path)
	return res, nil
}

// checkHash records one replicate pass and fails the run when its trace
// hash differs from the invariant-checked reference.
func (r *result) checkHash(replicate int, pass string, got, want uint64) {
	r.attempted++
	if got != want {
		r.failed++
		r.fail(fmt.Sprintf("%s pass, replicate %d: trace hash %016x differs from the checked pass's %016x", pass, replicate, got, want))
	}
}

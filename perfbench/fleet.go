package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/rng"
)

// Fleet shape and load. The node count and cost model follow
// cmd/clustersim's defaults; the width range is widened to 1–16 so that
// jobs block each other and the backfill pass has work.
const (
	fleetNodes       = 16
	fleetNodeCap     = 4
	fleetMinWidth    = 1
	fleetMaxWidth    = 16
	fleetMaxAttempts = 16
	fleetSetupReps   = 5001
	// fleetReplicates is how many independently seeded workloads one
	// simulation pass runs — an operator's replicated experiment. The
	// cost of one replicate swings with its queue's excursions (the EASY
	// scan and the capacity profile grow with the queue), so the pass
	// total is summed over many replicates to stay steady from seed to
	// seed.
	fleetReplicates = 32
)

// Per-workload load and size. Load is offered *reserved* node-time per
// unit of capacity: killed attempts free their nodes at the
// reservation, so measured utilization sits well below it. 1.35 puts
// EASY near 0.9 utilization. Conservative backfill runs at a lower load
// (see README.md): near saturation its run time is dominated by queue
// excursions and varies severalfold from seed to seed.
const (
	fleetEasyLoad    = 1.35
	fleetEasyJobs    = 50_000
	fleetConservLoad = 1.15
	fleetConservJobs = 20_000
)

// fleetModel is cmd/clustersim's default cost model.
var fleetModel = repro.CostModel{Alpha: 1, Beta: 0.5, Gamma: 0.1}

// The job mix is one class: the Table-1 law Weibull(1,0.5), the mix
// whose queueing behaviour was measured when the workloads were chosen
// (utilization 0.90 and mean wait 15.9 at reserved load 1.35), under
// brute-force — the strategy the plan service applies when a request
// names none, and the one with the lowest expected cost in the paper's
// evaluation.
const (
	fleetLaw      = "weibull(1,0.5)"
	fleetStrategy = repro.StrategyBruteForce
)

// fleetScenario is a set-up fleet workload: the cluster config and one
// workload spec per replicate, sharing the derived policies and rate.
type fleetScenario struct {
	name  string
	cfg   cluster.Config
	specs []cluster.WorkloadSpec
}

// jobs is the job count of one pass over every replicate.
func (sc *fleetScenario) jobs() int {
	n := 0
	for _, s := range sc.specs {
		n += s.Jobs
	}
	return n
}

// newFleetScenario derives the admission policies and sizes the
// arrival rate — the set-up a cmd/clustersim run performs — and seeds
// the replicates from seed.
func newFleetScenario(name string, seed uint64) (*fleetScenario, error) {
	backfill, load, jobs := cluster.BackfillEASY, fleetEasyLoad, fleetEasyJobs
	if name == wlFleetConserv {
		backfill, load, jobs = cluster.BackfillConservative, fleetConservLoad, fleetConservJobs
	}
	pl, err := repro.NewPlanner(fleetModel, repro.Options{})
	if err != nil {
		return nil, err
	}
	d, err := repro.ParseDistribution(fleetLaw)
	if err != nil {
		return nil, err
	}
	policy, err := pl.AdmissionPolicy(d, fleetStrategy, fleetMaxAttempts)
	if err != nil {
		return nil, fmt.Errorf("%s under %s: %w", fleetLaw, fleetStrategy, err)
	}
	classes := []cluster.JobClass{{
		Name: fleetLaw + "/" + fleetStrategy, Runtime: d, Weight: 1,
		MinWidth: fleetMinWidth, MaxWidth: fleetMaxWidth, Policy: policy,
	}}
	capacity := fleetNodes * fleetNodeCap
	meanWidth := float64(fleetMinWidth+fleetMaxWidth) / 2
	rate := load * float64(capacity) / (expectedReserved(d, policy) * meanWidth)
	nodes := make([]int, fleetNodes)
	for i := range nodes {
		nodes[i] = fleetNodeCap
	}
	sc := &fleetScenario{
		name: name,
		cfg: cluster.Config{
			Nodes:    nodes,
			Tenants:  []cluster.Tenant{{Name: "fleet", Budget: math.Inf(1)}},
			Backfill: backfill,
			Model:    pl.CostModel(),
		},
	}
	src := rng.New(seed)
	for r := 0; r < fleetReplicates; r++ {
		sc.specs = append(sc.specs, cluster.WorkloadSpec{Seed: src.Uint64(), Jobs: jobs, ArrivalRate: rate, Classes: classes})
	}
	return sc, nil
}

// expectedReserved is the expected node-time one job reserves across
// its kill-and-retry attempts: Σ r_i · P(X ≥ r_{i-1}), r_0 = 0.
func expectedReserved(d repro.Distribution, policy []float64) float64 {
	occ, prev := 0.0, 0.0
	for _, r := range policy {
		occ += r * d.Survival(prev)
		prev = r
	}
	return occ
}

// prepareFleet sets the scenario up fleetSetupReps times (timing each)
// and runs the untimed invariant-checked reference pass.
func prepareFleet(name string, seed uint64) (*fleetScenario, []float64, []cluster.StreamOutput, error) {
	var sc *fleetScenario
	var setup []float64
	runtime.GC()
	for r := 0; r < fleetSetupReps; r++ {
		t0 := now()
		s, err := newFleetScenario(name, seed)
		if err != nil {
			return nil, nil, nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		sc = s
	}
	refs := make([]cluster.StreamOutput, len(sc.specs))
	for r, spec := range sc.specs {
		out, err := cluster.RunStream(spec, sc.cfg, 0, true)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("invariant-checked pass, replicate %d: %w", r, err)
		}
		refs[r] = out
	}
	return sc, setup, refs, nil
}

// fleetPasses repeats untraced passes over every replicate with
// cluster.RunStream until d has elapsed (at least one pass), checking
// every trace hash against the reference pass. It returns each
// successful pass's process CPU seconds and peak live heap above the
// heap the pass started from, and the wall seconds of all passes.
//
// A pass is timed in CPU seconds, not wall seconds: the simulator is
// CPU-bound (a sequential event loop beside parallel generation waves
// and the collector), and on a shared 2-vCPU VM the hypervisor was
// seen to take up to a fifth of the CPU away (steal) for whole runs at
// a time, which lengthens wall time only. CPU time counts every
// thread's work, so extra work anywhere — the loop, generation, the
// collector — shows; time spent waiting idle does not, and the wall
// time is printed next to it for that reason.
func fleetPasses(sc *fleetScenario, refs []cluster.StreamOutput, d time.Duration, res *result) (secs, heaps []float64, wallSecs float64) {
	var cpu, wall time.Duration
	deadline := now().Add(d)
	for len(secs) == 0 || now().Before(deadline) {
		heap := startHeapSampler(liveHeap(), 5*time.Millisecond)
		c0, t0 := cpuTime(), now()
		ok := true
		for r, spec := range sc.specs {
			out, err := cluster.RunStream(spec, sc.cfg, 0, false)
			if err != nil {
				res.attempted++
				res.failed++
				res.fail(fmt.Sprintf("RunStream, replicate %d: %v", r, err))
				ok = false
				continue
			}
			res.checkHash(r, "streamed", out.TraceHash, refs[r].TraceHash)
			ok = ok && out.TraceHash == refs[r].TraceHash
		}
		passCPU, passWall := cpuTime()-c0, time.Since(t0)
		peak := heap.stop()
		cpu += passCPU
		wall += passWall
		if !ok {
			if len(secs) == 0 && !now().Before(deadline) {
				break
			}
			continue
		}
		secs = append(secs, passCPU.Seconds())
		heaps = append(heaps, peak)
	}
	return secs, heaps, wall.Seconds()
}

// runFleet runs a fleet workload untraced and reports the end-to-end
// metrics.
func runFleet(name string, seed uint64, secs int) (*result, error) {
	sc, setup, refs, err := prepareFleet(name, seed)
	if err != nil {
		return nil, err
	}
	res := newResult()
	passes, heaps, wall := fleetPasses(sc, refs, time.Duration(secs)*time.Second, res)
	addFleetMetrics(sc, setup, refs, passes, heaps, res)
	cpu := 0.0
	for _, s := range passes {
		cpu += s
	}
	res.note(fmt.Sprintf("%s: wall-clock %.0f simulated jobs per second over all passes; pass CPU time over wall time %.2f",
		sc.name, float64(len(passes)*sc.jobs())/wall, cpu/wall))
	return res, nil
}

// addFleetMetrics reports a fleet workload in the end-to-end vocabulary
// shared with the plan workloads. The operation is one pass — a
// replicated experiment, every replicate simulated once with
// cluster.RunStream — so the latency percentiles are over the passes'
// CPU times, and throughput_rps counts simulated jobs (each a request
// to the simulated scheduler) per CPU second of the median pass.
func addFleetMetrics(sc *fleetScenario, setup []float64, refs []cluster.StreamOutput, passes, heaps []float64, res *result) {
	if len(passes) == 0 {
		return // no pass ran correctly; the run has failed
	}
	ms := make([]float64, len(passes))
	for i, s := range passes {
		ms[i] = s * 1000
	}
	jobs := float64(sc.jobs())
	med := median(append([]float64(nil), passes...))
	res.add("setup_s", median(append([]float64(nil), setup...)), "s")
	res.add("throughput_rps", jobs/med, "1/s")
	res.add("latency_p50_ms", quantile(ms, 0.50), "ms")
	res.add("latency_p99_ms", quantile(ms, 0.99), "ms")
	res.add("success_rate", float64(res.attempted-res.failed)/float64(res.attempted), "ratio")
	res.add("peak_heap_mb", median(heaps), "MiB")
	o := fleetOutputs(sc, refs)
	res.note(fmt.Sprintf("%s: %d passes of %d replicates x %d jobs, sim_jobs_per_s %.0f, pass min/median/max %.3f/%.3f/%.3fs, utilization %.3f, mean wait %.3f, backfilled share %.3f",
		sc.name, len(passes), len(sc.specs), sc.specs[0].Jobs, jobs/med,
		quantile(passes, 0), med, quantile(passes, 1), o.utilization, o.meanWait, o.backfilled))
}

// outputs are the simulated outputs of a pass, aggregated over the
// replicates: means weighted by job count, utilization the replicate
// mean (as cluster.RunSweep reports it).
type outputs struct {
	utilization, meanWait, backfilled, attempts, eventsPerJob float64
}

func fleetOutputs(sc *fleetScenario, refs []cluster.StreamOutput) outputs {
	var o outputs
	jobs := float64(sc.jobs())
	for r, ref := range refs {
		w := float64(sc.specs[r].Jobs) / jobs
		o.utilization += ref.Stats.Utilization / float64(len(refs))
		o.meanWait += w * ref.Stats.MeanWait
		o.attempts += w * ref.Stats.MeanAttempts
		o.backfilled += float64(ref.Stats.Backfilled) / jobs
		o.eventsPerJob += float64(ref.TraceEvents) / jobs
	}
	return o
}

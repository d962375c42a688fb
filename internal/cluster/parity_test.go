package cluster

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/queuesim"
	"repro/internal/rng"
)

// costModelForSweep prices attempts in the sweep so finite budgets
// actually bind (rejections and mid-chain terminations occur).
var costModelForSweep = core.CostModel{Alpha: 1, Beta: 0.5, Gamma: 0.1}

// parityScenarios and sweepScenarios size the property-test families
// below; together they must cover at least 100 seeded scenarios.
const (
	parityScenarios = 64
	sweepScenarios  = 9 * 6 // Table-1 laws × cluster/tenant configs
)

func TestScenarioCountFloor(t *testing.T) {
	if parityScenarios+sweepScenarios < 100 {
		t.Fatalf("property families cover %d scenarios, need >= 100", parityScenarios+sweepScenarios)
	}
}

// parityWorkload draws one random scenario: a node count, a backfill
// switch, and a job list with deliberate arrival and completion ties
// (grid-snapped times) so the deterministic tie-breaks are exercised,
// not just reached by luck.
func parityWorkload(seed uint64) (queuesim.Config, []queuesim.Job) {
	r := rng.New(seed)
	nodeChoices := []int{1, 2, 3, 4, 6, 8, 12, 16}
	cfg := queuesim.Config{
		Nodes:          nodeChoices[int(r.Uint64n(uint64(len(nodeChoices))))],
		EnableBackfill: r.Uint64n(2) == 0,
	}
	n := 1 + int(r.Uint64n(150))
	jobs := make([]queuesim.Job, n)
	now := 0.0
	for i := range jobs {
		// Half the arrivals snap to a 0.5 grid and often repeat the
		// previous instant, forcing batch arrivals.
		if r.Uint64n(2) == 0 {
			now += 0.5 * float64(r.Uint64n(4)) // may add 0: simultaneous
		} else {
			now += 2 * r.Float64()
		}
		req := 0.5 + 0.25*float64(r.Uint64n(40)) // grid: equal ends happen
		actual := req * (0.1 + 1.4*r.Float64())  // ~1/3 of jobs get killed
		if r.Uint64n(4) == 0 {
			actual = req // exact fit: the killed/finished boundary
		}
		jobs[i] = queuesim.Job{
			ID:        i,
			Arrival:   now,
			Nodes:     1 + int(r.Uint64n(uint64(cfg.Nodes))),
			Requested: req,
			Actual:    actual,
		}
	}
	return cfg, jobs
}

// toClusterJobs projects queuesim jobs onto single-attempt cluster
// jobs.
func toClusterJobs(jobs []queuesim.Job) []Job {
	out := make([]Job, len(jobs))
	for i, j := range jobs {
		out[i] = Job{
			ID:      j.ID,
			Arrival: j.Arrival,
			Width:   j.Nodes,
			Actual:  j.Actual,
			Policy:  []float64{j.Requested},
		}
	}
	return out
}

// sameFloat is bit-exact float equality (the parity contract is
// bit-identical, not approximately equal).
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func comparePair(t *testing.T, label string, seed uint64, want queuesim.Result, got Result) {
	t.Helper()
	g := got.Result
	if g.ID != want.ID || g.Nodes != want.Nodes ||
		!sameFloat(g.Arrival, want.Arrival) ||
		!sameFloat(g.Requested, want.Requested) ||
		!sameFloat(g.Actual, want.Actual) {
		t.Fatalf("seed %d %s job %d: identity fields diverged\nqueuesim: %+v\ncluster:  %+v", seed, label, want.ID, want, g)
	}
	if !sameFloat(g.Start, want.Start) || !sameFloat(g.Wait, want.Wait) || !sameFloat(g.End, want.End) {
		t.Fatalf("seed %d %s job %d: schedule diverged\nqueuesim: start=%v wait=%v end=%v\ncluster:  start=%v wait=%v end=%v",
			seed, label, want.ID, want.Start, want.Wait, want.End, g.Start, g.Wait, g.End)
	}
	if g.Killed != want.Killed || g.Backfilled != want.Backfilled || g.Rejected != want.Rejected {
		t.Fatalf("seed %d %s job %d: flags diverged\nqueuesim: %+v\ncluster:  %+v", seed, label, want.ID, want, g)
	}
	if got.Attempts != 1 || got.Kills != btoi(want.Killed) || got.Preempts != 0 {
		t.Fatalf("seed %d %s job %d: single-attempt accounting wrong: %+v", seed, label, want.ID, got)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestParityWithQueuesim is the degeneracy contract: on unit-capacity
// nodes (and equally on one node carrying the whole capacity), with
// single-attempt policies, an unmetered tenant, and EASY/none
// backfilling, the cluster simulator reproduces queuesim.Simulate
// bit-for-bit — every result field and every summary statistic.
func TestParityWithQueuesim(t *testing.T) {
	for seed := uint64(0); seed < parityScenarios; seed++ {
		qcfg, qjobs := parityWorkload(seed)
		checkQueuesimParity(t, seed, qcfg, qjobs, nil)
	}
	// The loaded wide-width regime of the engine parity suite, one
	// attempt per job: the EASY pass's skip and early stop fire on most
	// passes. Scheduling reads only the total free capacity, so the
	// 16×4 fleet matches queuesim's 64 unit nodes too.
	for seed := uint64(0); seed < loadedWideSeeds; seed++ {
		qcfg, qjobs, nodes := loadedWideQueuesim(seed*2654435761 + 5)
		checkQueuesimParity(t, seed, qcfg, qjobs, nodes)
	}
}

// loadedWideQueuesim projects loadedWideSpec's jobs onto queuesim:
// each job makes one attempt, reserving the first reservation of its
// sequence that covers its runtime (or the last), and arrivals come
// at the rate that keeps 0.9 of the 64 units busy. It also returns
// the fleet's node shape.
func loadedWideQueuesim(seed uint64) (queuesim.Config, []queuesim.Job, []int) {
	spec, cfg := loadedWideSpec(seed, 1500)
	spec.Classes = spec.Classes[:1]
	law := spec.Classes[0].Runtime
	meanWidth := float64(spec.Classes[0].MinWidth+spec.Classes[0].MaxWidth) / 2
	spec.ArrivalRate = 0.9 * float64(cfg.Capacity()) / (law.Mean() * meanWidth)
	jobs, err := GenerateJobs(spec, 0)
	if err != nil {
		panic(err)
	}
	out := make([]queuesim.Job, len(jobs))
	for i, j := range jobs {
		req := j.Policy[len(j.Policy)-1]
		for _, r := range j.Policy {
			if r >= j.Actual {
				req = r
				break
			}
		}
		out[i] = queuesim.Job{ID: j.ID, Arrival: j.Arrival, Nodes: j.Width, Requested: req, Actual: j.Actual}
	}
	return queuesim.Config{Nodes: cfg.Capacity(), EnableBackfill: true}, out, cfg.Nodes
}

// checkQueuesimParity simulates one queuesim scenario on unit nodes,
// on one node carrying the whole capacity and, when extra is non-nil,
// on the extra node shape, and requires every result field, the
// summary statistics and the trace invariants to match.
func checkQueuesimParity(t *testing.T, seed uint64, qcfg queuesim.Config, qjobs []queuesim.Job, extra []int) {
	t.Helper()
	want, err := queuesim.Simulate(qcfg, qjobs)
	if err != nil {
		t.Fatalf("seed %d: queuesim: %v", seed, err)
	}
	backfill := BackfillNone
	if qcfg.EnableBackfill {
		backfill = BackfillEASY
	}
	type shape struct {
		label string
		nodes []int
	}
	shapes := []shape{
		{"unit-nodes", UnitNodes(qcfg.Nodes)},
		{"one-fat-node", []int{qcfg.Nodes}},
	}
	if extra != nil {
		shapes = append(shapes, shape{fmt.Sprintf("%d-nodes", len(extra)), extra})
	}
	for _, shape := range shapes {
		ccfg := Config{Nodes: shape.nodes, Backfill: backfill}
		var buf TraceBuffer
		ccfg.Recorder = &buf
		got, err := Simulate(ccfg, toClusterJobs(qjobs))
		if err != nil {
			t.Fatalf("seed %d %s: cluster: %v", seed, shape.label, err)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d %s: %d results, want %d", seed, shape.label, len(got), len(want))
		}
		for i := range want {
			comparePair(t, shape.label, seed, want[i], got[i])
		}
		// Summary parity: the embedded stats must match bit-exactly.
		qs := queuesim.Summarize(qcfg, want)
		cs := Summarize(ccfg, got)
		if qs.Jobs != cs.Jobs || qs.Rejected != cs.Rejected ||
			qs.Backfilled != cs.Backfilled || qs.Killed != cs.Killed {
			t.Fatalf("seed %d %s: summary counts diverged: %+v vs %+v", seed, shape.label, qs, cs.Stats)
		}
		if !sameFloat(qs.MeanWait, cs.MeanWait) || !sameFloat(qs.MaxWait, cs.MaxWait) || !sameFloat(qs.Utilization, cs.Utilization) {
			t.Fatalf("seed %d %s: summary floats diverged: %+v vs %+v", seed, shape.label, qs, cs.Stats)
		}
		// And the trace must satisfy every invariant.
		if err := CheckTrace(ccfg, buf.Events); err != nil {
			t.Fatalf("seed %d %s: %v", seed, shape.label, err)
		}
	}
}

// sweepPolicy builds a multi-attempt reservation sequence from a law's
// quantiles, keeping it strictly increasing.
func sweepPolicy(d dist.Distribution, ps ...float64) []float64 {
	var out []float64
	last := 0.0
	for _, p := range ps {
		q := d.Quantile(p)
		if !(q > last) || math.IsInf(q, 0) || math.IsNaN(q) {
			continue
		}
		out = append(out, q)
		last = q
	}
	if len(out) == 0 {
		out = []float64{1}
	}
	return out
}

// TestInvariantSweep runs every Table-1 law against six cluster/tenant
// shapes — heterogeneous capacities, finite budgets, tight quotas, all
// three backfill policies, and preemption — with the streaming
// Invariants checker attached. Any violation fails the run.
func TestInvariantSweep(t *testing.T) {
	laws := dist.Table1()
	names := dist.Table1Names()
	shapes := []struct {
		name    string
		nodes   []int
		tenants []Tenant
		back    BackfillPolicy
		preempt float64
	}{
		{"unit-easy", UnitNodes(4), nil, BackfillEASY, 0},
		{"fat-fcfs", []int{8}, nil, BackfillNone, 0},
		{"hetero-easy", []int{2, 3, 3}, []Tenant{
			{Name: "a", Budget: math.Inf(1)},
			{Name: "b", Budget: 4000, Quota: 3},
		}, BackfillEASY, 0},
		{"hetero-conservative", []int{1, 2, 4}, []Tenant{
			{Name: "a", Budget: math.Inf(1), Quota: 4},
			{Name: "b", Budget: 2500},
		}, BackfillConservative, 0},
		{"quota-pressure", UnitNodes(6), []Tenant{
			{Name: "a", Budget: math.Inf(1), Quota: 2},
			{Name: "b", Budget: math.Inf(1), Quota: 2},
			{Name: "c", Budget: 900, Quota: 1},
		}, BackfillEASY, 0},
		{"preempting", UnitNodes(5), []Tenant{
			{Name: "a", Budget: math.Inf(1)},
			{Name: "b", Budget: 3000},
		}, BackfillEASY, 2},
	}
	jobsPer := 1500
	if testing.Short() {
		jobsPer = 300
	}
	scenario := 0
	for li, law := range laws {
		for si, shape := range shapes {
			scenario++
			policy := sweepPolicy(law, 0.5, 0.75, 0.95, 0.999)
			capTotal := 0
			for _, c := range shape.nodes {
				capTotal += c
			}
			maxW := capTotal
			if len(shape.tenants) > 0 {
				// Keep widths satisfiable under the tightest quota.
				for _, tn := range shape.tenants {
					if tn.Quota > 0 && tn.Quota < maxW {
						maxW = tn.Quota
					}
				}
			}
			classes := make([]JobClass, 0, len(shape.tenants)+1)
			tenants := len(shape.tenants)
			if tenants == 0 {
				tenants = 1
			}
			for tn := 0; tn < tenants; tn++ {
				classes = append(classes, JobClass{
					Name:     names[li],
					Runtime:  law,
					Weight:   1 + float64(tn),
					MinWidth: 1,
					MaxWidth: maxW,
					Tenant:   tn,
					Policy:   policy,
				})
			}
			// Keep the system loaded but stable: mean demand ≈ 60% of
			// capacity.
			meanW := float64(1+maxW) / 2
			rate := 0.6 * float64(capTotal) / (meanW * law.Mean())
			spec := WorkloadSpec{
				Seed:        uint64(1000*li + si),
				Jobs:        jobsPer,
				ArrivalRate: rate,
				Classes:     classes,
			}
			cfg := Config{
				Nodes:        shape.nodes,
				Tenants:      shape.tenants,
				Backfill:     shape.back,
				Model:        costModelForSweep,
				PreemptAfter: shape.preempt,
			}
			out, err := Run(spec, cfg, 0, true)
			if err != nil {
				t.Fatalf("law %s shape %s: %v", names[li], shape.name, err)
			}
			if out.Stats.Jobs != jobsPer {
				t.Fatalf("law %s shape %s: %d jobs summarized, want %d", names[li], shape.name, out.Stats.Jobs, jobsPer)
			}
			if out.TraceEvents == 0 {
				t.Fatalf("law %s shape %s: empty trace", names[li], shape.name)
			}
		}
	}
	if scenario != sweepScenarios {
		t.Fatalf("ran %d sweep scenarios, expected %d", scenario, sweepScenarios)
	}
}

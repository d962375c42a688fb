package cluster

import (
	"math"
	"testing"

	"repro/internal/dist"
)

// engineShapes are the two cluster shapes every engine-parity scenario
// runs on: many unit-capacity nodes and few fat nodes (allocation
// splitting, different backfill geometry).
func engineShapes() map[string][]int {
	return map[string][]int{
		"unit": UnitNodes(8),
		"fat":  {4, 4},
	}
}

// compareEngines simulates the same scenario under EngineHeap and
// EngineCalendar and requires bit-identical traces, per-job results,
// and summaries. Both runs ride the full invariant checker.
func compareEngines(t *testing.T, label string, cfg Config, jobs []Job) {
	t.Helper()
	type run struct {
		res  []Result
		hash *TraceHash
	}
	runs := make(map[Engine]run)
	for _, eng := range []Engine{EngineHeap, EngineCalendar} {
		c := cfg
		c.Engine = eng
		hash := NewTraceHash()
		inv := NewInvariants(c)
		c.Recorder = MultiRecorder(hash, inv)
		res, err := Simulate(c, jobs)
		if err != nil {
			t.Fatalf("%s: engine %v: %v", label, eng, err)
		}
		if err := inv.Finish(); err != nil {
			t.Fatalf("%s: engine %v: invariants: %v", label, eng, err)
		}
		runs[eng] = run{res: res, hash: hash}
	}
	h, c := runs[EngineHeap], runs[EngineCalendar]
	if h.hash.Sum64() != c.hash.Sum64() || h.hash.Events() != c.hash.Events() {
		t.Fatalf("%s: trace diverged: heap %x (%d events) vs calendar %x (%d events)",
			label, h.hash.Sum64(), h.hash.Events(), c.hash.Sum64(), c.hash.Events())
	}
	if len(h.res) != len(c.res) {
		t.Fatalf("%s: result count %d vs %d", label, len(h.res), len(c.res))
	}
	for i := range h.res {
		a, b := h.res[i], c.res[i]
		if a.ID != b.ID || a.Tenant != b.Tenant || a.Nodes != b.Nodes ||
			a.Attempts != b.Attempts || a.Kills != b.Kills || a.Preempts != b.Preempts ||
			a.Killed != b.Killed || a.Backfilled != b.Backfilled || a.Rejected != b.Rejected ||
			!sameFloat(a.Arrival, b.Arrival) || !sameFloat(a.Requested, b.Requested) ||
			!sameFloat(a.Actual, b.Actual) || !sameFloat(a.Start, b.Start) ||
			!sameFloat(a.Wait, b.Wait) || !sameFloat(a.End, b.End) ||
			!sameFloat(a.Cost, b.Cost) || !sameFloat(a.NodeSeconds, b.NodeSeconds) {
			t.Fatalf("%s: job %d diverged\nheap:     %+v\ncalendar: %+v", label, a.ID, a, b)
		}
	}
	sh := Summarize(cfg, h.res)
	sc := Summarize(cfg, c.res)
	if sh != sc {
		t.Fatalf("%s: summaries diverged\nheap:     %+v\ncalendar: %+v", label, sh, sc)
	}
}

// TestEngineParityScenarios: 64 seeded workloads × 2 cluster shapes,
// cycling through every scheduling policy family (FCFS, EASY,
// EASY+preemption, conservative) with multi-attempt policies, finite
// budgets and quotas. The calendar engine must be indistinguishable
// from the reference heap: equal trace hash, Float64bits-equal results
// and summaries.
func TestEngineParityScenarios(t *testing.T) {
	for seed := uint64(0); seed < parityScenarios; seed++ {
		spec := determinismSpec(seed*2654435761+1, 400)
		jobs, err := GenerateJobs(spec, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cfg := determinismCfg()
		switch seed % 4 {
		case 0:
			cfg.Backfill = BackfillEASY
		case 1:
			cfg.Backfill = BackfillConservative
		case 2:
			cfg.Backfill = BackfillEASY
			cfg.PreemptAfter = 0.5
		case 3:
			cfg.Backfill = BackfillNone
		}
		for name, nodes := range engineShapes() {
			cfg.Nodes = nodes
			compareEngines(t, name, cfg, jobs)
		}
	}
	// The loaded wide-width regime, where the queue is long and its
	// narrowest job is often wider than the free capacity: the EASY
	// pass's skip and early stop, which the heap engine does not take,
	// fire on most passes.
	for seed := uint64(0); seed < loadedWideSeeds; seed++ {
		spec, cfg := loadedWideSpec(seed*2654435761+3, 1500)
		jobs, err := GenerateJobs(spec, 0)
		if err != nil {
			t.Fatalf("loaded seed %d: %v", seed, err)
		}
		for _, v := range []struct {
			name    string
			back    BackfillPolicy
			preempt float64
		}{
			{"loaded-easy", BackfillEASY, 0},
			{"loaded-easy-preempt", BackfillEASY, 20},
			{"loaded-conservative", BackfillConservative, 0},
		} {
			cfg.Backfill, cfg.PreemptAfter = v.back, v.preempt
			compareEngines(t, v.name, cfg, jobs)
		}
	}
}

// loadedWideSeeds is how many loaded wide-width workloads the engine
// and queuesim parity suites run.
const loadedWideSeeds = 6

// loadedWideSpec is a fleet whose jobs block each other: 16 nodes of 4
// units, widths 1–16, Weibull(1,0.5) runtimes under a four-attempt
// reservation sequence, arriving at 1.35 times the capacity in
// reserved node-time (each attempt reserves its whole reservation;
// killed attempts free their units early). Tenant 1 carries a quarter
// of the jobs under a 24-unit quota, so its attempts park in the hold
// queue and re-enter the run queue on release.
func loadedWideSpec(seed uint64, jobs int) (WorkloadSpec, Config) {
	law := dist.MustWeibull(1, 0.5)
	policy := sweepPolicy(law, 0.5, 0.8, 0.95, 0.999)
	reserved, prev := 0.0, 0.0
	for _, r := range policy {
		reserved += r * law.Survival(prev)
		prev = r
	}
	const nodes, nodeCap, maxWidth, load = 16, 4, 16, 1.35
	caps := make([]int, nodes)
	for i := range caps {
		caps[i] = nodeCap
	}
	meanWidth := float64(1+maxWidth) / 2
	spec := WorkloadSpec{
		Seed:        seed,
		Jobs:        jobs,
		ArrivalRate: load * nodes * nodeCap / (reserved * meanWidth),
		Classes: []JobClass{
			{Name: "open", Runtime: law, Weight: 3, MinWidth: 1, MaxWidth: maxWidth, Tenant: 0, Policy: policy},
			{Name: "quota", Runtime: law, Weight: 1, MinWidth: 1, MaxWidth: maxWidth, Tenant: 1, Policy: policy},
		},
	}
	cfg := Config{
		Nodes: caps,
		Tenants: []Tenant{
			{Name: "open", Budget: math.Inf(1)},
			{Name: "quota", Budget: math.Inf(1), Quota: 24},
		},
		Backfill: BackfillEASY,
		Model:    costModelForSweep,
	}
	return spec, cfg
}

// TestEngineAllEqualTimes: every completion lands at the same instant,
// so the calendar queue has no positive gap to size a bucket width
// from — it must fall back to the heap mid-run and still produce the
// heap engine's exact trace, with the (time, start-order) tie-break
// preserved and the invariant checker clean.
func TestEngineAllEqualTimes(t *testing.T) {
	jobs := make([]Job, 200)
	for i := range jobs {
		jobs[i] = Job{ID: i, Arrival: 0, Width: 1, Actual: 1, Policy: []float64{2}}
	}
	cfg := Config{Nodes: UnitNodes(64), Backfill: BackfillEASY}
	compareEngines(t, "all-equal", cfg, jobs)
}

// TestEngineWideTimeSpread: completion times spread over 12 decades —
// no single bucket width covers the span, so the calendar queue must
// detect the degenerate spread at its first rebuild and fall back
// without misordering anything.
func TestEngineWideTimeSpread(t *testing.T) {
	jobs := make([]Job, 48)
	for i := range jobs {
		actual := math.Pow(10, float64(i%13)-6) // 1e-6 .. 1e6
		jobs[i] = Job{ID: i, Arrival: 0, Width: 1, Actual: actual, Policy: []float64{2e6}}
	}
	cfg := Config{Nodes: UnitNodes(48), Backfill: BackfillEASY}
	compareEngines(t, "wide-spread", cfg, jobs)
}

// TestEngineZeroDurationJobs: zero-runtime jobs complete at their start
// instant, producing long runs of same-time events whose relative
// order is pure (time, start-order seq) tie-breaking.
func TestEngineZeroDurationJobs(t *testing.T) {
	jobs := make([]Job, 120)
	for i := range jobs {
		actual := 0.0
		if i%3 == 0 {
			actual = 0.25
		}
		jobs[i] = Job{ID: i, Arrival: float64(i / 12), Width: 1 + i%3, Actual: actual, Policy: []float64{0.5}}
	}
	cfg := Config{Nodes: UnitNodes(6), Backfill: BackfillEASY}
	compareEngines(t, "zero-duration", cfg, jobs)
}

// TestEngineValidation: unknown engine values are rejected.
func TestEngineValidation(t *testing.T) {
	cfg := Config{Nodes: UnitNodes(1), Engine: Engine(9)}
	if _, err := Simulate(cfg, nil); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if EngineCalendar.String() != "calendar" || EngineHeap.String() != "heap" || Engine(9).String() != "unknown" {
		t.Fatal("engine names wrong")
	}
}

package cluster_test

import (
	"math"
	"testing"

	"repro"
	"repro/internal/cluster"
)

// loadedEASYWorkload is a fleet under EASY backfill where jobs block
// each other: 16 nodes of 4 units, widths 1–16, one Weibull(1,0.5)
// class under its brute-force reservation sequence (up to 16
// attempts), arriving at 1.35 times the capacity in reserved
// node-time — about 0.9 utilization once kills free their nodes early.
func loadedEASYWorkload(tb testing.TB, jobs int, seed uint64) (cluster.WorkloadSpec, cluster.Config) {
	tb.Helper()
	model := repro.CostModel{Alpha: 1, Beta: 0.5, Gamma: 0.1}
	pl, err := repro.NewPlanner(model, repro.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	d, err := repro.ParseDistribution("weibull(1,0.5)")
	if err != nil {
		tb.Fatal(err)
	}
	policy, err := pl.AdmissionPolicy(d, repro.StrategyBruteForce, 16)
	if err != nil {
		tb.Fatal(err)
	}
	// Expected reserved node-time per unit width: Σ r_i · P(X ≥ r_{i-1}).
	reserved, prev := 0.0, 0.0
	for _, r := range policy {
		reserved += r * d.Survival(prev)
		prev = r
	}
	const nodes, nodeCap, minW, maxW, load = 16, 4, 1, 16, 1.35
	caps := make([]int, nodes)
	for i := range caps {
		caps[i] = nodeCap
	}
	rate := load * nodes * nodeCap / (reserved * float64(minW+maxW) / 2)
	spec := cluster.WorkloadSpec{
		Seed:        seed,
		Jobs:        jobs,
		ArrivalRate: rate,
		Classes: []cluster.JobClass{{
			Name: "weibull/brute-force", Runtime: d, Weight: 1,
			MinWidth: minW, MaxWidth: maxW, Policy: policy,
		}},
	}
	cfg := cluster.Config{
		Nodes:    caps,
		Tenants:  []cluster.Tenant{{Name: "fleet", Budget: math.Inf(1)}},
		Backfill: cluster.BackfillEASY,
		Model:    model,
	}
	return spec, cfg
}

// BenchmarkEASYLoaded runs one 50 000-job streaming pass of the loaded
// EASY workload, where the backfill pass dominates the profile:
//
//	go test -run '^$' -bench EASYLoaded -cpuprofile cpu.out ./internal/cluster
func BenchmarkEASYLoaded(b *testing.B) {
	spec, cfg := loadedEASYWorkload(b, 50_000, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.RunStream(spec, cfg, 0, false); err != nil {
			b.Fatal(err)
		}
	}
}

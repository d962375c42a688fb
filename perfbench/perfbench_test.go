package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
	"repro/service/api"
)

// TestSameSeedSameInputs: a seed fixes the request streams and the
// fleet WorkloadSpecs; another seed changes them.
func TestSameSeedSameInputs(t *testing.T) {
	a, err := coldRequests(5, 300)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := coldRequests(5, 300)
	c, _ := coldRequests(6, 300)
	if !reflect.DeepEqual(a, b) {
		t.Error("plan-cold: same seed gave different streams")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("plan-cold: different seeds gave the same stream")
	}

	g1, err := newHotGrid()
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := newHotGrid()
	s1, s2, s3 := hotSequence(g1, 5, 5000), hotSequence(g2, 5, 5000), hotSequence(g1, 6, 5000)
	if !reflect.DeepEqual(g1, g2) || !reflect.DeepEqual(s1, s2) {
		t.Error("plan-hot: same seed gave different streams")
	}
	if reflect.DeepEqual(s1, s3) {
		t.Error("plan-hot: different seeds gave the same stream")
	}

	for _, name := range []string{wlFleetEasy, wlFleetConserv} {
		x, err := newFleetScenario(name, 5)
		if err != nil {
			t.Fatal(err)
		}
		y, _ := newFleetScenario(name, 5)
		z, _ := newFleetScenario(name, 6)
		if !reflect.DeepEqual(x.specs, y.specs) || !reflect.DeepEqual(x.cfg, y.cfg) {
			t.Errorf("%s: same seed gave different WorkloadSpecs", name)
		}
		if reflect.DeepEqual(x.specs, z.specs) {
			t.Errorf("%s: different seeds gave the same WorkloadSpec", name)
		}
	}
}

// TestColdPhaseIsCounted: plan-cold's measured phases are bounded by a
// request count, not by the clock, and the stream holds the traced and
// untraced phases of a run, so attempted and failed repeat for a seed.
func TestColdPhaseIsCounted(t *testing.T) {
	const secs = 2
	w, err := preparePlan(wlPlanCold, 9, secs, nil)
	if err != nil {
		t.Fatal(err)
	}
	run, half := w.measuredPhase(0, secs), w.measuredPhase(coldTracedRequests, secs/2.0)
	for _, ls := range []loopSpec{run, half} {
		if ls.count <= 0 || ls.duration != 0 {
			t.Fatalf("plan-cold phase %+v, want a request count and no deadline", ls)
		}
	}
	if len(w.cold) < run.count || len(w.cold) < half.from+half.count {
		t.Fatalf("stream holds %d requests; phases %+v and %+v need more", len(w.cold), run, half)
	}
}

// TestColdKeysDistinctAndUncached: plan-cold never repeats a cache key,
// and a run's worth of keys outnumbers the fleet's response caches, so
// every request the fleet serves is a miss.
func TestColdKeysDistinctAndUncached(t *testing.T) {
	capacity := planShards * service.DefaultCacheSize
	n := 3 * capacity
	w, err := preparePlan(wlPlanCold, 9, 1, timingHandler)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.cold) < n {
		t.Fatalf("stream holds %d requests, want at least %d", len(w.cold), n)
	}
	keys := map[string]bool{}
	for _, r := range w.cold[:n] {
		var sim api.SimulateRequest
		if err := json.Unmarshal(r.body, &sim); err != nil {
			t.Fatal(err)
		}
		canon, err := service.CanonicalSpec(sim.Distribution)
		if err != nil {
			t.Fatal(err)
		}
		sim.Distribution = canon
		k, _ := json.Marshal(struct {
			Path string
			Req  api.SimulateRequest
		}{r.path, sim})
		keys[string(k)] = true
	}
	if len(keys) != n {
		t.Fatalf("%d distinct keys among %d requests", len(keys), n)
	}
	lr, err := w.runLoop(loopSpec{count: n, trace: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, rt := range lr.traces {
		if rt.status == 200 && rt.cache != "miss" {
			t.Fatalf("request %d served as %q, want miss", rt.id, rt.cache)
		}
	}
	if lr.incorrect != 0 {
		t.Fatalf("%d invalid responses: %v", lr.incorrect, lr.problems)
	}
}

// TestHotWarmHitRatio: after set-up warms the fleet, plan-hot is served
// entirely from cache, in every spelling, with identical bytes per key.
func TestHotWarmHitRatio(t *testing.T) {
	w, err := preparePlan(wlPlanHot, 9, 1, timingHandler)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(w.hot.canonical); got != 216 {
		t.Fatalf("hot grid has %d keys, want 216", got)
	}
	if len(w.hot.canonical) > service.DefaultCacheSize {
		t.Fatal("hot grid does not fit one backend's response cache")
	}
	lr, err := w.runLoop(loopSpec{count: 5000, trace: true})
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, rt := range lr.traces {
		if rt.cache == "hit" {
			hits++
		}
	}
	if hits != len(lr.traces) || lr.failed != 0 || lr.incorrect != 0 {
		t.Fatalf("hit ratio %d/%d, %d failed, %d incorrect: %v", hits, len(lr.traces), lr.failed, lr.incorrect, lr.problems)
	}
	// All four spellings of every key must reach the cache entry.
	c, err := newClient(w.fleet)
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range w.hot.bodies {
		rt := &reqTrace{}
		raw, err := c.PostRaw(context.WithValue(context.Background(), traceKey{}, rt), api.PathPlan, body, "")
		if err != nil || raw.Status != 200 || rt.cache != "hit" {
			t.Fatalf("spelling %s: status %v, cache %q, err %v", body, raw.Status, rt.cache, err)
		}
	}
}

// TestFleetHasQueue guards against an idle scheduler: the fleet
// workloads must queue (positive mean wait), backfill, and retry, with
// fleet-easy near 0.9 utilization; the streamed runs must pass the
// invariant checker. Four replicates of each are checked.
func TestFleetHasQueue(t *testing.T) {
	for _, name := range []string{wlFleetEasy, wlFleetConserv} {
		sc, err := newFleetScenario(name, 9)
		if err != nil {
			t.Fatal(err)
		}
		if len(sc.specs) != fleetReplicates {
			t.Fatalf("%s: %d replicates, want %d", name, len(sc.specs), fleetReplicates)
		}
		refs := make([]cluster.StreamOutput, 4)
		for r := range refs {
			if refs[r], err = cluster.RunStream(sc.specs[r], sc.cfg, 0, true); err != nil {
				t.Fatalf("%s replicate %d: %v", name, r, err)
			}
		}
		sc.specs = sc.specs[:len(refs)]
		o := fleetOutputs(sc, refs)
		lo, hi := 0.85, 0.95
		if name == wlFleetConserv {
			lo, hi = 0.7, 0.9
		}
		if !(o.meanWait > 0) || !(o.backfilled > 0) || o.utilization < lo || o.utilization > hi {
			t.Errorf("%s: mean wait %g, backfilled share %g, utilization %g; want a real queue at %g–%g utilization",
				name, o.meanWait, o.backfilled, o.utilization, lo, hi)
		}
		if o.attempts <= 1 {
			t.Errorf("%s: %g attempts per job; the policies should retry", name, o.attempts)
		}
	}
}

// TestCheckBody: the response validator accepts a good plan and
// rejects non-finite costs and non-increasing reservations.
func TestCheckBody(t *testing.T) {
	good := `{"plan":{"strategy":"brute-force","cost_model":{"alpha":1,"beta":0,"gamma":0},"reservations":[1,2,4],"expected_cost":3,"normalized_cost":1.5}}`
	if err := checkBody(api.PathPlan, []byte(good)); err != nil {
		t.Fatalf("good body rejected: %v", err)
	}
	for _, bad := range []string{
		`{"plan":{"reservations":[1,1],"expected_cost":3,"normalized_cost":1.5}}`,
		`{"plan":{"reservations":[],"expected_cost":3,"normalized_cost":1.5}}`,
		`{"plan":{"reservations":[1,2],"expected_cost":3,"normalized_cost":1e999}}`,
		`{"plan":{"reservations":[1,2],"expected_cost":3,"normalized_cost":1.5},"extra":1}`,
	} {
		if checkBody(api.PathPlan, []byte(bad)) == nil {
			t.Errorf("bad body accepted: %s", bad)
		}
	}
}

// TestBenchmarkJSONMatchesProgram: BENCHMARK.json names exactly the
// metrics and workloads this program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var workloads []string
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	if want := []string{wlPlanCold, wlPlanHot, wlFleetEasy, wlFleetConserv}; !reflect.DeepEqual(workloads, want) {
		t.Errorf("workloads %v, want %v", workloads, want)
	}

	plan := newResult()
	lr := &loopResult{latMS: []float64{1, 2}, attempted: 2, ok: 2, elapsed: time.Second, peakHeapMB: 1}
	(&planWorkload{}).addPlanMetrics(lr, 1, 1000, plan)
	fleet := newResult()
	fleet.attempted = 1
	addFleetMetrics(&fleetScenario{specs: []cluster.WorkloadSpec{{Jobs: 1}}}, []float64{1},
		[]cluster.StreamOutput{{}}, []float64{1}, []float64{1}, fleet)
	for _, m := range spec.EndToEnd {
		for _, r := range []*result{plan, fleet} {
			if got, ok := r.metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("end-to-end metric %s (%s): reported as %+v, %v", m.Name, m.Unit, got, ok)
			}
		}
	}
	if len(plan.metrics) != len(spec.EndToEnd) || len(fleet.metrics) != len(spec.EndToEnd) {
		t.Errorf("program reports %d/%d end-to-end metrics, BENCHMARK.json lists %d",
			len(plan.metrics), len(fleet.metrics), len(spec.EndToEnd))
	}

	var want, got []string
	for _, l := range layerMetrics() {
		want = append(want, l.name+" "+l.unit)
	}
	for _, m := range spec.PerLayer {
		got = append(got, m.Name+" "+m.Unit)
	}
	sort.Strings(want)
	sort.Strings(got)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("per-layer metrics differ:\nprogram   %v\nBENCHMARK %v", want, got)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, n := range append(want, got...) {
		if !name.MatchString(regexp.MustCompile(` .*$`).ReplaceAllString(n, "")) {
			t.Errorf("invalid metric name %q", n)
		}
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/service/api"
)

// planReq is one request the closed loop sends: the endpoint, the
// exact body bytes, and bookkeeping the checks need.
type planReq struct {
	path string // api.PathPlan or api.PathSimulate
	body []byte
	key  int // plan-hot: the grid key the body spells
}

// tableModels are the three cost models of the service's warmup grid
// (service.WarmupRequests): reservation-only, the NeuroHPC platform
// model, and α = β = 1.
func tableModels() []api.CostModel {
	var out []api.CostModel
	seen := map[api.CostModel]bool{}
	for _, req := range service.WarmupRequests() {
		if !seen[req.CostModel] {
			seen[req.CostModel] = true
			out = append(out, req.CostModel)
		}
	}
	return out
}

// family draws one jittered law of a Table-1 family. j returns a
// multiplicative jitter factor in [e^-0.5, e^0.5].
type family func(j func() float64) (repro.Distribution, error)

// coldFamilies are the nine Table-1 families with every parameter
// jittered. Constraints keep each law inside the family's valid (and
// finite-variance) region, so no request is malformed by design.
var coldFamilies = []family{
	func(j func() float64) (repro.Distribution, error) { return asDist(repro.Exponential(j())) },
	func(j func() float64) (repro.Distribution, error) { return asDist(repro.Weibull(j(), 0.5*j())) },
	func(j func() float64) (repro.Distribution, error) { return asDist(repro.Gamma(2*j(), 2*j())) },
	func(j func() float64) (repro.Distribution, error) { return asDist(repro.LogNormal(3*j(), 0.5*j())) },
	func(j func() float64) (repro.Distribution, error) {
		return asDist(repro.TruncatedNormal(8*j(), math.Sqrt2*j(), 0))
	},
	// Pareto's shape stays above 2 so its standard deviation is finite.
	func(j func() float64) (repro.Distribution, error) { return asDist(repro.Pareto(1.5*j(), 2+j())) },
	func(j func() float64) (repro.Distribution, error) {
		a := 10 * j()
		return asDist(repro.Uniform(a, a+10*j()))
	},
	func(j func() float64) (repro.Distribution, error) { return asDist(repro.Beta(2*j(), 2*j())) },
	func(j func() float64) (repro.Distribution, error) {
		l := j()
		return asDist(repro.BoundedPareto(l, l*20*j(), 2.1*j()))
	},
}

func asDist[T repro.Distribution](d T, err error) (repro.Distribution, error) {
	if err != nil {
		return nil, err
	}
	return d, nil
}

// Stream composition constants.
const (
	simulateSamples = 1000
	hotZipfS        = 1.1
	hotSpellings    = 4
)

// Block sizes of the stratified plan-cold attributes: every block holds
// each value in its exact share, in a seeded order, so the request mix
// is the same for every seed and only the order and the jitter vary.
const (
	optionBlock   = 15 // 12 default, 1 each of the three non-default sets
	endpointBlock = 10 // 9 plan, 1 simulate
)

// shuffled deals 0..n-1 in blocks, each block a fresh seeded permutation.
type shuffled struct {
	src  *rng.Source
	n    int
	perm []int
}

func (s *shuffled) next() int {
	if len(s.perm) == 0 {
		s.perm = s.src.Perm(s.n)
	}
	v := s.perm[0]
	s.perm = s.perm[1:]
	return v
}

// coldRequests returns the first n plan-cold requests for seed. Every
// request carries a distinct cache key: a freshly jittered law of one
// of the nine families, one of the three warmup cost models, one of
// the eight strategies, default or non-default options, and (one in
// ten) the simulate endpoint. The categorical attributes are
// stratified (see optionBlock); a key that repeats is re-jittered.
func coldRequests(seed uint64, n int) ([]planReq, error) {
	streams := rng.Split(seed, 4)
	src := streams[0]
	jitter := func() float64 { return math.Exp(src.Float64() - 0.5) }
	models := tableModels()
	strategies := repro.Strategies()
	combos := &shuffled{src: streams[1], n: len(coldFamilies) * len(models) * len(strategies)}
	options := &shuffled{src: streams[2], n: optionBlock}
	endpoints := &shuffled{src: streams[3], n: endpointBlock}
	seen := make(map[string]bool, n)
	out := make([]planReq, 0, n)
	for len(out) < n {
		c := combos.next()
		fam, model, strat := c%len(coldFamilies), c/len(coldFamilies)%len(models), c/len(coldFamilies)/len(models)
		var opts api.Options
		switch options.next() {
		case 0:
			opts.MonteCarlo = true
		case 1:
			opts.DiscN = 2000
		case 2:
			opts.GridM = 8000
		}
		simulate := endpoints.next() == 0
		for {
			d, err := coldFamilies[fam](jitter)
			if err != nil {
				return nil, err
			}
			spec, err := repro.DistributionSpec(d)
			if err != nil {
				return nil, err
			}
			req := api.PlanRequest{Distribution: spec, CostModel: models[model], Strategy: strategies[strat], Options: opts}
			path := api.PathPlan
			var payload any = req
			if simulate {
				path = api.PathSimulate
				payload = api.SimulateRequest{PlanRequest: req, Samples: simulateSamples, SimSeed: src.Uint64()}
			}
			body, err := json.Marshal(payload)
			if err != nil {
				return nil, err
			}
			if key := path + string(body); !seen[key] {
				seen[key] = true
				out = append(out, planReq{path: path, body: body})
				break
			}
		}
	}
	return out, nil
}

// hotGrid is the plan-hot key space: the nine Table-1 laws × three
// cost models × eight strategies, default options — 216 keys. Each
// key is spelled hotSpellings equivalent ways; every spelling resolves
// to the key's one canonical cache entry.
type hotGrid struct {
	canonical []api.PlanRequest // one per key, used for warmup
	bodies    [][]byte          // key*hotSpellings + spelling
	rank      []int             // Zipf rank → key, a fixed permutation
	cum       []float64         // Zipf cumulative weights by rank
}

// hotRankSeed fixes the Zipf popularity order of the grid's keys. Keys
// differ in cost (their responses differ in size), so the order is the
// same for every workload seed: seeds send the same mix and differ only
// in the order of the draws.
const hotRankSeed = 0x9e3779b97f4a7c15

// newHotGrid builds the grid — the service's warmup grid crossed with
// the strategies — and its Zipf popularity order.
func newHotGrid() (*hotGrid, error) {
	g := &hotGrid{}
	for _, warm := range service.WarmupRequests() {
		for _, st := range repro.Strategies() {
			req := warm
			req.Strategy = st
			g.canonical = append(g.canonical, req)
			for s := 0; s < hotSpellings; s++ {
				b, err := spell(req, s)
				if err != nil {
					return nil, err
				}
				g.bodies = append(g.bodies, b)
			}
		}
	}
	g.rank = rng.New(hotRankSeed).Perm(len(g.canonical))
	g.cum = make([]float64, len(g.canonical))
	total := 0.0
	for i := range g.cum {
		total += math.Pow(float64(i+1), -hotZipfS)
		g.cum[i] = total
	}
	return g, nil
}

// draw returns the index into bodies of the next hot request from src:
// a Zipf-distributed key and a uniformly chosen spelling.
func (g *hotGrid) draw(src *rng.Source) int {
	u := src.Float64() * g.cum[len(g.cum)-1]
	r := sort.SearchFloat64s(g.cum, u)
	if r >= len(g.cum) {
		r = len(g.cum) - 1
	}
	return g.rank[r]*hotSpellings + int(src.Uint64n(hotSpellings))
}

// request returns the request behind a bodies index.
func (g *hotGrid) request(idx int) planReq {
	return planReq{path: api.PathPlan, body: g.bodies[idx], key: idx / hotSpellings}
}

// spell renders req in one of hotSpellings equivalent wire forms:
//
//	0: canonical spec, explicit strategy, options omitted;
//	1: upper-case spec with padding and a name alias where one exists;
//	2: parameters in exponent notation, defaults spelled out explicitly;
//	3: hand-written JSON with reordered fields; brute-force omits the
//	   strategy, which the service defaults to brute-force.
func spell(req api.PlanRequest, s int) ([]byte, error) {
	switch s {
	case 0:
		return json.Marshal(req)
	case 1:
		r := req
		spec := strings.Replace(r.Distribution, "exponential(", "exp(", 1)
		spec = strings.Replace(spec, "truncnormal(", "truncatednormal(", 1)
		r.Distribution = "  " + strings.ToUpper(strings.Replace(spec, ",", " , ", -1)) + " "
		return json.Marshal(r)
	case 2:
		r := req
		r.Distribution = exponentSpec(r.Distribution)
		r.Options = api.Options{GridM: 5000, DiscN: 1000, Epsilon: 1e-7, PreviewLen: 16}
		return json.Marshal(r)
	default:
		strat := `, "strategy": "` + req.Strategy + `"`
		if req.Strategy == repro.StrategyBruteForce {
			strat = ""
		}
		m := req.CostModel
		return []byte(fmt.Sprintf(`{ "cost_model": {"gamma": %s, "beta": %s, "alpha": %s}%s,
  "distribution": %q }`,
			fmtE(m.Gamma), fmtE(m.Beta), fmtE(m.Alpha), strat, req.Distribution)), nil
	}
}

// exponentSpec rewrites every parameter of a canonical spec in exact
// exponent notation ("gamma(2,2)" → "gamma(2e+00,2e+00)").
func exponentSpec(spec string) string {
	open := strings.IndexByte(spec, '(')
	parts := strings.Split(spec[open+1:len(spec)-1], ",")
	for i, p := range parts {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			panic(err) // canonical specs hold shortest round-trip floats
		}
		parts[i] = fmtE(v)
	}
	return spec[:open+1] + strings.Join(parts, ",") + ")"
}

// fmtE formats v in the shortest exponent notation that round-trips.
func fmtE(v float64) string { return strconv.FormatFloat(v, 'e', -1, 64) }

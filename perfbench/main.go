// Command perfbench is the repository benchmark. It drives the plan
// service (a service.Frontend over in-process backends, reached through
// the repro/client SDK) and the fleet simulator (cluster.RunStream) the
// way their users do, checks the outputs, and prints every metric by
// name and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics; with -trace 1 a
// traced run reports the per-layer breakdown, writes its spans under
// -out, and prints the layer report to standard error.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload plan-cold --seed 1 --seconds 20 --trace 0
//
// See perfbench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

// Workload names.
const (
	wlPlanCold     = "plan-cold"
	wlPlanHot      = "plan-hot"
	wlFleetEasy    = "fleet-easy"
	wlFleetConserv = "fleet-conservative"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", wlPlanCold, "workload: plan-cold, plan-hot, fleet-easy, fleet-conservative")
	seed := fs.Uint64("seed", 1, "workload seed (the held-out confirmation seed is 7)")
	secs := fs.Int("seconds", 20, "measured seconds per run")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := fs.String("out", ".bench_build/perfbench", "directory the traced run writes its spans into")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *secs < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	var (
		res *result
		err error
	)
	traced := *traceFlag == 1
	switch *workload {
	case wlPlanCold, wlPlanHot:
		if traced {
			res, err = tracePlan(*workload, *seed, *secs, *out, stderr)
		} else {
			res, err = runPlan(*workload, *seed, *secs)
		}
	case wlFleetEasy, wlFleetConserv:
		if traced {
			res, err = traceFleet(*workload, *seed, *secs, *out, stderr)
		} else {
			res, err = runFleet(*workload, *seed, *secs)
		}
	default:
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if traced {
		res.fillLayers()
	}
	for _, n := range res.notes {
		fmt.Fprintln(stderr, "perfbench:", n)
	}
	line, err := res.json()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.correct {
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
	notes     []string
}

func newResult() *result {
	return &result{correct: true, metrics: map[string]metric{}}
}

func (r *result) add(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a correctness failure.
func (r *result) fail(why string) {
	r.correct = false
	r.notes = append(r.notes, "CHECK FAILED: "+why)
}

// note records a diagnostic line for standard error.
func (r *result) note(s string) { r.notes = append(r.notes, s) }

// fillLayers reports every per-layer metric a traced run of another
// workload family measures as zero: that layer does not run here.
func (r *result) fillLayers() {
	for _, l := range layerMetrics() {
		if _, ok := r.metrics[l.name]; !ok {
			r.add(l.name, 0, l.unit)
		}
	}
}

func (r *result) json() ([]byte, error) {
	for n, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is not finite", n)
		}
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics})
}

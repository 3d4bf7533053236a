// Command perfbench is the repository benchmark: one process runs one of
// four seeded workloads (or all of them), checks every output it
// produces, and prints its metrics by name with their units. The last
// line of standard output is a JSON object:
//
//	{"correct": true, "attempted": 1200, "failed": 0, "metrics": {"setup_s": {"value": 0.81, "unit": "s"}, ...}}
//
// With --trace 0 the metrics are the end-to-end metrics of
// BENCHMARK.json, measured with tracing off. With --trace 1 they are the
// per-layer metrics: the benchmark records a span around every public
// call it makes into a layer, arms graphgen.WithProfile on the batch
// workloads, replays the serve workloads' op stream against the library,
// and writes the spans to .bench_build/spans/ at exit.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload paper-batch --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20 --trace 0
//
// The exit code is 0 only when every output check passed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// spanDir is where a traced run writes its spans, relative to the
// repository root the benchmark runs from.
const spanDir = ".bench_build/spans"

// workloadNames lists the workloads in the order --workload all runs them.
var workloadNames = []string{"paper-batch", "snb-reach", "serve-mixed", "serve-readmostly"}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// spanDir receives the span file of a traced run; empty disables it.
	spanDir string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload run reports: the op counts, the check
// verdict and the metrics of the requested kind.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// notes are human-readable lines (input sizes, check details)
	// printed before the JSON line.
	notes []string
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) notef(format string, a ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, a...))
}

// fail records a failed output check: it counts as one failed op.
func (r *result) fail(format string, a ...any) {
	r.Failed++
	r.notef("CHECK FAILED: "+format, a...)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 20, "measured duration of one run, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: unexpected arguments: %s\n", strings.Join(fs.Args(), " "))
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive, got %g\n", *seconds)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	names := []string{*wl}
	if *wl == "all" {
		names = workloadNames
	} else if runnerFor(*wl) == nil {
		fmt.Fprintf(stderr, "perfbench: unknown --workload %q (valid: %s, all)\n", *wl, strings.Join(workloadNames, ", "))
		return 2
	}

	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		cfg := config{workload: name, seed: *seed, seconds: *seconds, trace: *trace == 1, spanDir: spanDir}
		res, err := runnerFor(name)(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		res.Correct = res.Failed == 0
		printSummary(stdout, name, cfg, res)
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, m := range res.Metrics {
			if len(names) > 1 {
				k = name + "/" + k
			}
			total.Metrics[k] = m
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding the result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

// runnerFor returns the function that runs the named workload, or nil.
func runnerFor(name string) func(config) (*result, error) {
	switch name {
	case "paper-batch":
		return runPaperBatch
	case "snb-reach":
		return runSNBReach
	case "serve-mixed":
		return func(cfg config) (*result, error) { return runServe(cfg, mixServeMixed) }
	case "serve-readmostly":
		return func(cfg config) (*result, error) { return runServe(cfg, mixReadMostly) }
	}
	return nil
}

// printSummary writes the human-readable block of one workload: notes,
// then every metric by name with its unit.
func printSummary(w io.Writer, name string, cfg config, res *result) {
	kind := "end-to-end, tracing off"
	if cfg.trace {
		kind = "per-layer, traced"
	}
	fmt.Fprintf(w, "== %s (seed %d, %gs, %s)\n", name, cfg.seed, cfg.seconds, kind)
	for _, n := range res.notes {
		fmt.Fprintln(w, "  "+n)
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := res.Metrics[k]
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", k, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Failed == 0)
}

// deadline returns the end of the measured phase that starts now.
func (cfg config) deadline() time.Time {
	return time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
}

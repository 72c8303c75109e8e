// Command benchmark is the repository's benchmark: five closed-loop
// workloads over the production-default NeXUS stack, end-to-end metrics
// from an untraced run and per-layer metrics from a traced one. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	go run ./benchmark                                    # every workload, untraced then traced, then the layer probes
//	go run ./benchmark -workload tree_create -trace 0     # one run, end-to-end metrics (the driver's form)
//	go run ./benchmark -workload tree_create -trace 1     # one run, per-layer metrics and the span file
//	go run ./benchmark -repeat 5                          # five sets, min/median/max and spread against each bound
//	go run ./benchmark -probes                            # the layer probes alone
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

var workloads = []*workload{treeCreate, coldScan, fileIO, localMixed, shareRevoke}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// result is one run's outcome, printed as the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// options are one run's settings.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	size    string
	outDir  string
	probes  probeBudget
}

// runOnce measures one workload once and returns its result together
// with the readings behind it.
func runOnce(w *workload, o options) (result, map[string]reading, error) {
	sz, ok := sizePresets[o.size]
	if !ok {
		return result{}, nil, fmt.Errorf("unknown -size %q", o.size)
	}
	h := newHarness(w, sz, o.seed, o.trace)
	if err := h.measure(o.seconds); err != nil {
		return result{}, nil, err
	}
	var readings map[string]reading
	defs := defsFor(o.trace)
	if o.trace {
		b := h.tr.analyze()
		probes, err := layerProbes(o.probes, int(h.tracedA.objects))
		if err != nil {
			return result{}, nil, fmt.Errorf("layer probes: %w", err)
		}
		readings = h.perLayer(b, probes)
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			return result{}, nil, fmt.Errorf("creating -out: %w", err)
		}
		path := filepath.Join(o.outDir, "trace-"+w.name+".jsonl")
		if err := writeSpans(path, b.spans); err != nil {
			return result{}, nil, err
		}
		fmt.Fprintf(os.Stderr, "benchmark: %d spans written to %s\n", len(b.spans), path)
		printSelfTimes(os.Stderr, w.name, b, h.tracedA.blocks)
	} else {
		readings = h.endToEnd()
	}
	res := result{
		Attempted: h.attempted + h.checks,
		Failed:    h.failed + h.badChecks,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		r, ok := readings[d.name]
		if !ok {
			return result{}, nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: r.value, Unit: d.unit}
	}
	res.Correct = res.Failed == 0 && finite(readings)
	return res, readings, nil
}

// defsFor is what a run reports: the end-to-end metrics untraced, the
// per-layer metrics traced.
func defsFor(trace bool) []metricDef {
	if trace {
		return perLayerDefs
	}
	return endToEndDefs
}

// printSelfTimes prints the per-layer self-time table of a traced run.
func printSelfTimes(out io.Writer, name string, b *breakdown, blocks int) {
	layers := make([]string, 0, len(b.self))
	var sum float64
	for layer, d := range b.self {
		layers = append(layers, layer)
		sum += d.Seconds()
	}
	sort.Slice(layers, func(i, j int) bool { return b.self[layers[i]] > b.self[layers[j]] })
	busy := b.layerBusy("vfs").Seconds()
	fmt.Fprintf(out, "%s: self time by layer, per block (%d traced blocks)\n", name, blocks)
	for _, layer := range layers {
		self := b.self[layer].Seconds()
		fmt.Fprintf(out, "  %-10s %10.4f s  %5.1f %%\n", layer, self/float64(blocks), 100*ratio(self, busy))
	}
	fmt.Fprintf(out, "  %-10s %10.4f s  %5.1f %% of vfs.busy_s %.4f s\n", "sum", sum/float64(blocks), 100*ratio(sum, busy), busy/float64(blocks))
}

// printReadings prints every metric by name with its unit and, for
// metrics that summarise samples, the sample count.
func printReadings(out io.Writer, title string, defs []metricDef, readings map[string]reading) {
	fmt.Fprintf(out, "%s\n", title)
	for _, d := range defs {
		r := readings[d.name]
		n := ""
		if r.n > 0 {
			n = fmt.Sprintf("  n=%d", r.n)
		}
		fmt.Fprintf(out, "  %-34s %16.6g %-6s%s\n", d.name, r.value, d.unit, n)
	}
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name    = flag.String("workload", "", "run one workload (tree_create, cold_scan, file_io, local_mixed, share_revoke) and print one JSON result; default runs all")
		seed    = flag.Uint64("seed", 1, "workload generator seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 15, "user-operation time to measure per run")
		trace   = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
		size    = flag.String("size", "std", "input sizes: std or smoke")
		outDir  = flag.String("out", ".bench_out", "directory for span files")
		probes  = flag.Bool("probes", false, "run the layer probes alone")
		repeat  = flag.Int("repeat", 0, "run N full untraced sets and print min/median/max and spread against each bound")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace != 0, size: *size, outDir: *outDir, probes: quickProbes}
	if *size == "smoke" {
		o.probes = smokeProbes
	}

	switch {
	case *probes:
		values, err := layerProbes(fullProbes, 1000)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		printProbes(os.Stdout, values)
		return 0
	case *repeat > 0:
		return repeatSets(*repeat, o)
	case *name != "":
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		res, readings, err := runOnce(w, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		printReadings(os.Stderr, w.name, defsFor(o.trace), readings)
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		fmt.Println(string(line))
		if !res.Correct {
			return 1
		}
		return 0
	}
	return fullSet(o)
}

// printProbes prints the layer probes' readings.
func printProbes(out io.Writer, values map[string]float64) {
	fmt.Fprintln(out, "layer probes")
	for _, d := range perLayerDefs {
		if v, ok := values[d.name]; ok {
			fmt.Fprintf(out, "  %-34s %16.6g %s\n", d.name, v, d.unit)
		}
	}
}

// fullSet is the one-command form: every workload untraced (end-to-end
// metrics) and traced (per-layer metrics, with quick probes), then the
// layer probes at full length.
func fullSet(o options) int {
	status := 0
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o.trace = traced
			res, readings, err := runOnce(w, o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				return 1
			}
			title := w.name + ": end to end (untraced)"
			if traced {
				title = w.name + ": per layer (traced)"
			}
			printReadings(os.Stdout, title, defsFor(traced), readings)
			fmt.Fprintf(os.Stdout, "  attempted %d, failed %d, correct %v\n\n", res.Attempted, res.Failed, res.Correct)
			if !res.Correct {
				status = 1
			}
		}
	}
	if o.size != "smoke" {
		values, err := layerProbes(fullProbes, 1000)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		printProbes(os.Stdout, values)
	}
	return status
}

// repeatSets runs n full untraced sets and reports, per workload and
// end-to-end metric, min, median and max, and the interquartile spread
// as a share of the median next to the metric's bound.
func repeatSets(n int, o options) int {
	status := 0
	o.trace = false
	for _, w := range workloads {
		values := make(map[string][]float64)
		for i := 0; i < n; i++ {
			run := o
			run.seed = o.seed + uint64(i)
			res, _, err := runOnce(w, run)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				return 1
			}
			if !res.Correct {
				status = 1
			}
			for _, d := range endToEndDefs {
				values[d.name] = append(values[d.name], res.Metrics[d.name].Value)
			}
		}
		fmt.Printf("%s: %d runs, seeds %d..%d\n", w.name, n, o.seed, o.seed+uint64(n)-1)
		for _, d := range endToEndDefs {
			v := values[d.name]
			spread := ratio(quantile(v, 0.75)-quantile(v, 0.25), median(v))
			fmt.Printf("  %-28s min %-12.6g median %-12.6g max %-12.6g spread %6.2f %%  bound %4.0f %%\n",
				d.name, quantile(v, 0), median(v), quantile(v, 1), 100*spread, 100*d.bound)
		}
	}
	return status
}

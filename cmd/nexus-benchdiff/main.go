// nexus-benchdiff compares two machine-readable bench reports written
// by `nexus-bench -json` and exits non-zero when the current run
// regressed beyond tolerance. It is the CI perf gate:
//
//	nexus-benchdiff -baseline bench/baseline.json -current BENCH_abc1234.json
//
// Three metrics are gated per experiment entry: ns/op may not rise
// beyond -tolerance (default 0.2 = +20%), allocs/op may not rise
// beyond -allocs-tolerance (default 0.1 = +10%), and MB/s may not drop
// beyond -mbs-tolerance (default 0.25 = −25%). A baseline metric
// missing from the current report also fails. Reports stamped with
// differing CPU counts or architectures are refused — the parallel
// chunk-crypto figures are not comparable — unless -allow-env-mismatch
// is passed.
package main

import (
	"flag"
	"fmt"
	"os"

	"nexus/internal/bench"
	"nexus/internal/bench/compare"
)

func main() {
	baseline := flag.String("baseline", "", "baseline report (required)")
	current := flag.String("current", "", "current report (required)")
	tolerance := flag.Float64("tolerance", 0.2, "allowed fractional ns/op slowdown before failing")
	allocsTol := flag.Float64("allocs-tolerance", compare.DefaultAllocsTolerance, "allowed fractional allocs/op rise before failing")
	mbsTol := flag.Float64("mbs-tolerance", compare.DefaultMBsTolerance, "allowed fractional MB/s drop before failing")
	allowEnv := flag.Bool("allow-env-mismatch", false, "diff reports from differing cpus/goarch anyway (numbers are apples-to-oranges)")
	flag.Parse()

	opts := compare.Options{
		Tolerance:        *tolerance,
		AllocsTolerance:  *allocsTol,
		MBsTolerance:     *mbsTol,
		AllowEnvMismatch: *allowEnv,
	}
	if err := run(*baseline, *current, opts); err != nil {
		fmt.Fprintf(os.Stderr, "nexus-benchdiff: %v\n", err)
		os.Exit(1)
	}
}

func run(baselinePath, currentPath string, opts compare.Options) error {
	if baselinePath == "" || currentPath == "" {
		return fmt.Errorf("both -baseline and -current are required")
	}
	base, err := bench.LoadReport(baselinePath)
	if err != nil {
		return err
	}
	cur, err := bench.LoadReport(currentPath)
	if err != nil {
		return err
	}

	deltas, regressed, err := compare.DiffOpts(base, cur, opts)
	if err != nil {
		return err
	}
	fmt.Printf("baseline %s (%d cpus, %s) vs current %s (%d cpus, %s)\n",
		base.Rev, base.CPUs, base.GOARCH, cur.Rev, cur.CPUs, cur.GOARCH)
	fmt.Printf("gates: ns/op +%.0f%%, allocs/op +%.0f%%, MB/s -%.0f%%\n",
		opts.Tolerance*100, opts.AllocsTolerance*100, opts.MBsTolerance*100)
	compare.Format(os.Stdout, deltas, opts)

	if regressed {
		return fmt.Errorf("performance regression beyond tolerance (ns/op +%.0f%%, allocs/op +%.0f%%, MB/s -%.0f%%)",
			opts.Tolerance*100, opts.AllocsTolerance*100, opts.MBsTolerance*100)
	}
	fmt.Println("no regressions")
	return nil
}

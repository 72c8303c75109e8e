// nexus-bench regenerates the tables and figures of the NEXUS evaluation
// (DSN'19 §VII) on the simulated testbed.
//
// Usage:
//
//	nexus-bench [-exp all|fileio|dirops|gitclone|db|apps|revoke|revoke-sweep|sharing|metadata|freshness|ablation]
//	            [-scale N] [-runs N] [-rtt duration] [-bw MBps]
//	            [-entries N] [-transition duration] [-dirs LIST]
//	            [-json] [-out FILE] [-members LIST] [-objects LIST]
//
// -exp also accepts a comma-separated list (e.g. -exp fileio,metadata)
// so one report can cover several experiments. "all" runs everything
// except ablation, the slow one, which runs only when named; an unknown
// name is an error.
//
// -dirs lists the file counts the dirops experiment creates and deletes
// in one directory, one row each.
//
// -scale divides workload file *sizes* (never counts) so paper-scale
// experiments (-scale 1) and quick runs (-scale 1024) use identical
// operation mixes. It must be at least 1. The defaults complete in a
// few minutes.
//
// -json additionally writes a schema-versioned machine-readable report
// (ns/op, MB/s, latency percentiles and the sweeps' per-op counts per
// experiment) to BENCH_<rev>.json — or -out. It is a record, not a
// gate: CI's perf gate is `make bench`, which diffs the exact per-op
// counts of ./benchmark against bench/counts.jsonl.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strings"
	"time"

	"nexus/internal/bench"
	"nexus/internal/netsim"
	"nexus/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "nexus-bench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("nexus-bench", flag.ExitOnError)
	exp := fs.String("exp", "all", "comma-separated experiments: all|"+strings.Join(experiments, "|")+" (all leaves out ablation, the slow one)")
	scale := fs.Int64("scale", 64, "divide workload file sizes by this factor (1 = paper scale)")
	runs := fs.Int("runs", 3, "repetitions averaged per measurement")
	rtt := fs.Duration("rtt", 500*time.Microsecond, "simulated network round-trip time")
	bw := fs.Int64("bw", 125, "simulated bandwidth in MiB/s (0 = unlimited)")
	entries := fs.Int("entries", 2000, "database benchmark entry count")
	transition := fs.Duration("transition", 4*time.Microsecond, "simulated enclave transition cost")
	dirCounts := fs.String("dirs", "1024,2048,4096,8192", "comma-separated file counts for dirops")
	jsonOut := fs.Bool("json", false, "also write a machine-readable report (see -out)")
	outPath := fs.String("out", "", "report path for -json (default BENCH_<rev>.json)")
	members := fs.String("members", "1000,10000,100000,1000000", "comma-separated membership sizes for the revoke-sweep experiment")
	objects := fs.String("objects", "1000,10000,100000,1000000", "comma-separated namespace sizes for the freshness experiment")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits 2 inside Parse

	if *scale < 1 {
		return fmt.Errorf("bad -scale value %d: must be at least 1", *scale)
	}
	selected, err := selectExperiments(*exp)
	if err != nil {
		return err
	}
	want := func(name string) bool { return selected[name] }

	cfg := bench.Config{
		Profile:        netsim.Profile{RTT: *rtt, Bandwidth: *bw << 20},
		TransitionCost: *transition,
		Runs:           *runs,
		Scale:          *scale,
	}
	if *bw == 0 {
		cfg.Profile.Bandwidth = 0
	}

	fmt.Printf("NEXUS evaluation harness — rtt=%v bw=%dMiB/s scale=%d runs=%d transition=%v\n\n",
		*rtt, *bw, *scale, *runs, *transition)

	var report *bench.Report
	if *jsonOut {
		report = bench.NewReport(gitRev(), *scale)
	}

	env, err := bench.NewEnv(cfg)
	if err != nil {
		return err
	}
	defer env.Close()

	if want("fileio") {
		rows, err := bench.FileIO(env, []int{1, 2, 16, 64})
		if err != nil {
			return fmt.Errorf("fileio: %w", err)
		}
		bench.PrintFileIO(os.Stdout, rows)
		if report != nil {
			for _, r := range rows {
				size := int64(r.SizeMB) << 20 / *scale
				if size < 1 {
					size = 1
				}
				// The workload writes the file and reads it back, so
				// 2×size bytes cross the crypto pipeline per op.
				report.Add("fileio", fmt.Sprintf("write_read_%dMB", r.SizeMB), bench.Metric{
					NsPerOp:  float64(r.Nexus.Nanoseconds()),
					MBPerSec: float64(2*size) / r.Nexus.Seconds() / (1 << 20),
				})
			}
			// Per-operation latency distributions from the stack's
			// observability registry, aggregated over every size above.
			for _, name := range []string{"vfs_write_seconds", "vfs_read_seconds"} {
				if m := bench.LatencyMetric(env.Obs.Snapshot(name)); m.NsPerOp > 0 {
					report.Add("fileio", name, m)
				}
			}
		}
	}
	if want("dirops") {
		var counts []int
		for _, s := range splitCSV(*dirCounts) {
			var n int
			if _, err := fmt.Sscanf(s, "%d", &n); err != nil || n <= 0 {
				return fmt.Errorf("bad -dirs value %q", s)
			}
			counts = append(counts, n)
		}
		rows, err := bench.DirOps(env, counts)
		if err != nil {
			return fmt.Errorf("dirops: %w", err)
		}
		bench.PrintDirOps(os.Stdout, rows)
	}
	if want("gitclone") {
		rows, err := bench.GitClone(env, []workload.TreeSpec{workload.Redis, workload.Julia, workload.NodeJS})
		if err != nil {
			return fmt.Errorf("gitclone: %w", err)
		}
		bench.PrintGitClone(os.Stdout, rows)
	}
	if want("db") {
		rows, err := bench.Database(env, *entries)
		if err != nil {
			return fmt.Errorf("db: %w", err)
		}
		bench.PrintDatabase(os.Stdout, rows)
	}
	if want("apps") {
		rows, err := bench.LinuxApps(env, []workload.FlatSpec{workload.LFSD, workload.MFMD, workload.SFLD})
		if err != nil {
			return fmt.Errorf("apps: %w", err)
		}
		bench.PrintLinuxApps(os.Stdout, rows)
	}
	if want("revoke") {
		rows, err := bench.Revocation(env, []workload.FlatSpec{workload.SFLD, workload.LFSD})
		if err != nil {
			return fmt.Errorf("revoke: %w", err)
		}
		bench.PrintRevocation(os.Stdout, rows)
	}
	if want("revoke-sweep") {
		var counts []int
		for _, s := range splitCSV(*members) {
			var n int
			if _, err := fmt.Sscanf(s, "%d", &n); err != nil || n < 4 {
				return fmt.Errorf("bad -members value %q", s)
			}
			counts = append(counts, n)
		}
		rows, err := bench.MembershipSweep(counts, *runs)
		if err != nil {
			return fmt.Errorf("revoke-sweep: %w", err)
		}
		bench.PrintMembership(os.Stdout, rows)
		if report != nil {
			report.Experiments["revoke_membership"] = bench.MembershipMetrics(rows)
		}
	}
	if want("freshness") {
		var counts []int
		for _, s := range splitCSV(*objects) {
			var n int
			if _, err := fmt.Sscanf(s, "%d", &n); err != nil || n < 2 {
				return fmt.Errorf("bad -objects value %q", s)
			}
			counts = append(counts, n)
		}
		rows, err := bench.FreshnessSweep(counts, *runs*100)
		if err != nil {
			return fmt.Errorf("freshness: %w", err)
		}
		bench.PrintFreshness(os.Stdout, rows)
		if report != nil {
			report.Experiments["freshness_scale"] = bench.FreshnessMetrics(rows)
		}
	}
	if want("sharing") {
		rows, err := bench.Sharing(env)
		if err != nil {
			return fmt.Errorf("sharing: %w", err)
		}
		bench.PrintSharing(os.Stdout, rows)
	}
	if want("metadata") {
		const files = 128
		row, err := bench.Metadata(cfg, files)
		if err != nil {
			return fmt.Errorf("metadata: %w", err)
		}
		bench.PrintMetadata(os.Stdout, row)
		if report != nil {
			report.Experiments["metadata"] = bench.MetadataMetrics(row)
		}
	}
	if want("ablation") {
		const files = 512
		rows, err := bench.Ablation(cfg, files)
		if err != nil {
			return fmt.Errorf("ablation: %w", err)
		}
		bench.PrintAblation(os.Stdout, files, rows)
	}

	if report != nil {
		path := *outPath
		if path == "" {
			path = fmt.Sprintf("BENCH_%s.json", report.Rev)
		}
		if err := report.WriteFile(path); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}

// gitRev names the report after the checked-out revision; outside a git
// checkout (or without git) reports are stamped "dev".
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "dev"
	}
	rev := strings.TrimSpace(string(out))
	if rev == "" {
		return "dev"
	}
	return rev
}

// experiments are the names -exp accepts besides "all".
var experiments = []string{
	"fileio", "dirops", "gitclone", "db", "apps", "revoke", "revoke-sweep",
	"sharing", "metadata", "freshness", "ablation",
}

// selectExperiments resolves a comma-separated -exp list to the set of
// experiments to run. "all" stands for every experiment except
// ablation, which takes minutes and runs only when named; a name that
// is neither is an error, so a typo cannot pass as an empty green run.
func selectExperiments(list string) (map[string]bool, error) {
	selected := make(map[string]bool)
	for _, e := range splitCSV(list) {
		switch {
		case e == "all":
			for _, name := range experiments {
				if name != "ablation" {
					selected[name] = true
				}
			}
		case slices.Contains(experiments, e):
			selected[e] = true
		default:
			return nil, fmt.Errorf("unknown experiment %q in -exp %q (valid: all, %s)",
				e, list, strings.Join(experiments, ", "))
		}
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("-exp names no experiment (valid: all, %s)", strings.Join(experiments, ", "))
	}
	return selected, nil
}

func splitCSV(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

// Package compare diffs two machine-readable bench reports
// (BENCH_<rev>.json) and decides whether the newer one regressed. It is
// the library behind cmd/nexus-benchdiff and the CI perf gate.
//
// Three metrics are gated: ns/op (may not rise beyond Tolerance),
// allocs/op (may not rise beyond AllocsTolerance — the zero-copy chunk
// pipeline's allocation budget is a correctness-adjacent invariant, so
// CI fails when it erodes), and MB/s (may not drop beyond
// MBsTolerance). Tail latencies and flush/wrap counts remain
// informational. Reports from different machines are refused outright
// unless explicitly overridden: parallel chunk-crypto figures are
// meaningless across differing core counts or architectures.
package compare

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"nexus/internal/bench"
)

// Default per-metric tolerances used by Diff and cmd/nexus-benchdiff.
const (
	// DefaultAllocsTolerance is the allowed fractional rise in
	// allocs/op (+10%). Allocation counts are near-deterministic for a
	// given toolchain, so the band is deliberately tight.
	DefaultAllocsTolerance = 0.10
	// DefaultMBsTolerance is the allowed fractional drop in MB/s
	// (−25%). Throughput is noisier than allocation counts, so the
	// band is wider.
	DefaultMBsTolerance = 0.25
)

// speedupMinCPUs is the core count below which CheckSpeedup is
// meaningless and skips: with fewer than 4 schedulable CPUs the w4
// workers time-slice a smaller machine and no scaling is expected.
const speedupMinCPUs = 4

// Options configures a comparison. The zero value gates nothing but
// ns/op Missing checks; use Diff (or fill the fields) for the standard
// CI gate.
type Options struct {
	// Tolerance is the allowed fractional ns/op slowdown (0.2 = +20%):
	// a metric regresses when cur > base*(1+Tolerance).
	Tolerance float64
	// AllocsTolerance is the allowed fractional rise in allocs/op. The
	// gate is skipped for metrics where either report lacks the figure
	// (zero on either side).
	AllocsTolerance float64
	// MBsTolerance is the allowed fractional drop in MB/s: a metric
	// regresses when cur < base*(1−MBsTolerance). Skipped when either
	// side lacks the figure.
	MBsTolerance float64
	// AllowEnvMismatch skips the CheckEnv refusal for reports from
	// differing machines. The numbers are then printed but should be
	// read as apples-to-oranges.
	AllowEnvMismatch bool
}

// Delta is the comparison of one metric between two reports.
type Delta struct {
	Experiment string
	Metric     string
	// BaseNs and CurNs are ns/op in the baseline and current reports.
	BaseNs float64
	CurNs  float64
	// Ratio is CurNs/BaseNs (>1 means slower). Zero when Missing.
	Ratio float64
	// Missing marks a baseline metric absent from the current report —
	// treated as a regression, since silently dropping a measurement
	// would otherwise un-guard it.
	Missing bool
	// Regressed aggregates every gated failure: Missing, NsRegressed,
	// AllocsRegressed, or MBsRegressed.
	Regressed bool
	// NsRegressed is set when CurNs exceeds BaseNs by more than
	// Options.Tolerance.
	NsRegressed bool
	// BaseAllocs/CurAllocs/AllocsRatio compare allocs/op when both
	// reports carry the figure; AllocsRatio is zero otherwise.
	// AllocsRegressed is set when the rise exceeds
	// Options.AllocsTolerance.
	BaseAllocs      float64
	CurAllocs       float64
	AllocsRatio     float64
	AllocsRegressed bool
	// BaseMBs/CurMBs/MBsRatio compare MB/s when both reports carry the
	// figure (ratio >1 means faster). MBsRegressed is set when the
	// drop exceeds Options.MBsTolerance.
	BaseMBs      float64
	CurMBs       float64
	MBsRatio     float64
	MBsRegressed bool
	// P95Ratio and P99Ratio compare tail latencies when both reports
	// carry histogram percentiles for the metric; zero otherwise. Tails
	// are informational — too noisy to gate on — so they never set
	// Regressed.
	P95Ratio float64
	P99Ratio float64
	// FlushRatio compares metadata flushes per operation when both
	// reports carry the figure; zero otherwise. Informational only —
	// flush counts move by design when batching policy changes — so it
	// never sets Regressed.
	FlushRatio float64
	// WrapRatio compares key wraps per revocation (the membership
	// sweep) when both reports carry the figure; zero otherwise.
	// Informational only, like FlushRatio: wrap counts move by design
	// when the key-tree geometry changes.
	WrapRatio float64
	// ProofBytesRatio compares freshness evidence bytes per metadata
	// load (the freshness_scale sweep) when both reports carry the
	// figure; zero otherwise. Informational only, like WrapRatio: proof
	// sizes move by design when the namespace tree's geometry changes.
	ProofBytesRatio float64
}

// MissingBaselineError reports a gated metric the current run carries
// that the baseline report lacks entirely. Diffing such a pair used to
// pass silently — the metric produced no delta row and a zero ratio —
// which un-gated it exactly when the gate was supposed to start
// applying.
type MissingBaselineError struct {
	Experiment string
	Metric     string
}

func (e *MissingBaselineError) Error() string {
	return fmt.Sprintf("compare: baseline has no entry for gated metric %s/%s reported by the current run — refusing to pass it ungated; regenerate the baseline (make bench-baseline)",
		e.Experiment, e.Metric)
}

// CheckEnv reports whether two reports were produced on comparable
// machines. CPU counts and architectures must match when both sides
// carry them (older reports without the stamps are let through so the
// baseline can be upgraded incrementally).
func CheckEnv(baseline, current *bench.Report) error {
	if baseline.CPUs != 0 && current.CPUs != 0 && baseline.CPUs != current.CPUs {
		return fmt.Errorf("compare: reports are not comparable: baseline ran with %d cpus, current with %d — parallel chunk-crypto and MB/s figures shift with core count, so this diff would gate on noise; regenerate the baseline on this machine (or pass -allow-env-mismatch to diff anyway)",
			baseline.CPUs, current.CPUs)
	}
	if baseline.GOARCH != "" && current.GOARCH != "" && baseline.GOARCH != current.GOARCH {
		return fmt.Errorf("compare: reports are not comparable: baseline is %s, current is %s — allocation counts and AES throughput are architecture-specific; regenerate the baseline for this architecture (or pass -allow-env-mismatch to diff anyway)",
			baseline.GOARCH, current.GOARCH)
	}
	return nil
}

// Diff compares current against baseline with the standard CI gate:
// the given ns/op tolerance plus the default allocs/op and MB/s
// tolerances, refusing environment-mismatched reports. Metrics that
// exist only in current are new coverage, not regressions. Returns
// every delta (sorted, regressions included) and whether any metric
// regressed.
func Diff(baseline, current *bench.Report, tolerance float64) ([]Delta, bool, error) {
	return DiffOpts(baseline, current, Options{
		Tolerance:       tolerance,
		AllocsTolerance: DefaultAllocsTolerance,
		MBsTolerance:    DefaultMBsTolerance,
	})
}

// DiffOpts is Diff with every knob exposed.
func DiffOpts(baseline, current *bench.Report, opts Options) ([]Delta, bool, error) {
	if baseline.Schema != current.Schema {
		return nil, false, fmt.Errorf("compare: schema mismatch: baseline %d vs current %d", baseline.Schema, current.Schema)
	}
	if opts.Tolerance < 0 || opts.AllocsTolerance < 0 || opts.MBsTolerance < 0 {
		return nil, false, fmt.Errorf("compare: negative tolerance %+v", opts)
	}
	if !opts.AllowEnvMismatch {
		if err := CheckEnv(baseline, current); err != nil {
			return nil, false, err
		}
	}

	var deltas []Delta
	regressed := false
	for expName, baseExp := range baseline.Experiments {
		curExp := current.Experiments[expName]
		for name, base := range baseExp {
			d := Delta{Experiment: expName, Metric: name, BaseNs: base.NsPerOp}
			cur, ok := curExp[name]
			if !ok {
				d.Missing = true
			} else {
				d.CurNs = cur.NsPerOp
				if base.NsPerOp > 0 {
					d.Ratio = cur.NsPerOp / base.NsPerOp
				}
				d.NsRegressed = cur.NsPerOp > base.NsPerOp*(1+opts.Tolerance)
				if base.AllocsPerOp > 0 && cur.AllocsPerOp > 0 {
					d.BaseAllocs = base.AllocsPerOp
					d.CurAllocs = cur.AllocsPerOp
					d.AllocsRatio = cur.AllocsPerOp / base.AllocsPerOp
					d.AllocsRegressed = cur.AllocsPerOp > base.AllocsPerOp*(1+opts.AllocsTolerance)
				}
				if base.MBPerSec > 0 && cur.MBPerSec > 0 {
					d.BaseMBs = base.MBPerSec
					d.CurMBs = cur.MBPerSec
					d.MBsRatio = cur.MBPerSec / base.MBPerSec
					d.MBsRegressed = cur.MBPerSec < base.MBPerSec*(1-opts.MBsTolerance)
				}
				if base.P95Ns > 0 && cur.P95Ns > 0 {
					d.P95Ratio = cur.P95Ns / base.P95Ns
				}
				if base.P99Ns > 0 && cur.P99Ns > 0 {
					d.P99Ratio = cur.P99Ns / base.P99Ns
				}
				if base.FlushesPerOp > 0 && cur.FlushesPerOp > 0 {
					d.FlushRatio = cur.FlushesPerOp / base.FlushesPerOp
				}
				if base.WrapsPerOp > 0 && cur.WrapsPerOp > 0 {
					d.WrapRatio = cur.WrapsPerOp / base.WrapsPerOp
				}
				if base.ProofBytesPerOp > 0 && cur.ProofBytesPerOp > 0 {
					d.ProofBytesRatio = cur.ProofBytesPerOp / base.ProofBytesPerOp
				}
			}
			d.Regressed = d.Missing || d.NsRegressed || d.AllocsRegressed || d.MBsRegressed
			if d.Regressed {
				regressed = true
			}
			deltas = append(deltas, d)
		}
	}
	// The reverse direction: a gated metric the current run reports
	// with no baseline entry at all. Producing no row (and a zero
	// ratio) here would pass the run while leaving the new metric
	// un-gated — fail loudly instead.
	var missingBase *MissingBaselineError
	for expName, curExp := range current.Experiments {
		baseExp := baseline.Experiments[expName]
		for name := range curExp {
			if _, ok := baseExp[name]; ok {
				continue
			}
			// Deterministic choice when several are missing: report the
			// lexicographically first.
			if missingBase == nil || expName < missingBase.Experiment ||
				(expName == missingBase.Experiment && name < missingBase.Metric) {
				missingBase = &MissingBaselineError{Experiment: expName, Metric: name}
			}
		}
	}
	if missingBase != nil {
		return nil, false, missingBase
	}
	sort.Slice(deltas, func(i, j int) bool {
		if deltas[i].Experiment != deltas[j].Experiment {
			return deltas[i].Experiment < deltas[j].Experiment
		}
		return deltas[i].Metric < deltas[j].Metric
	})
	return deltas, regressed, nil
}

// CheckSpeedup enforces that the current report's parallel chunk
// crypto actually scales: for every experiment carrying MB/s figures
// for both a "<op>_w1" metric and its "<op>_w4" sibling, the w4 figure
// must be at least min× the w1 figure. Reports from machines with
// fewer than 4 CPUs are skipped (checked=false): time-slicing four
// workers on one core proves nothing about scaling. On a qualifying
// machine the gate refuses a report with no such metric pairs — a
// silently absent crypto experiment would otherwise un-guard the
// speedup the same way a Missing metric would.
func CheckSpeedup(r *bench.Report, min float64) (checked bool, err error) {
	if min <= 0 {
		return false, fmt.Errorf("compare: speedup threshold must be positive, got %v", min)
	}
	if r.CPUs < speedupMinCPUs {
		return false, nil
	}
	pairs := 0
	var failures []string
	for expName, exp := range r.Experiments {
		for name, w1 := range exp {
			base, found := strings.CutSuffix(name, "_w1")
			if !found || w1.MBPerSec <= 0 {
				continue
			}
			w4, ok := exp[base+"_w4"]
			if !ok || w4.MBPerSec <= 0 {
				continue
			}
			pairs++
			if w4.MBPerSec < min*w1.MBPerSec {
				failures = append(failures, fmt.Sprintf("%s/%s_w4: %.1f MB/s is %.2fx of w1's %.1f MB/s (want ≥ %.2fx)",
					expName, base, w4.MBPerSec, w4.MBPerSec/w1.MBPerSec, w1.MBPerSec, min))
			}
		}
	}
	if pairs == 0 {
		return false, fmt.Errorf("compare: speedup gate found no _w1/_w4 MB/s metric pairs in the report; run the crypto experiment (nexus-bench -exp crypto -json)")
	}
	if len(failures) > 0 {
		sort.Strings(failures)
		return true, fmt.Errorf("compare: parallel chunk crypto is not scaling on this %d-cpu machine:\n  %s", r.CPUs, strings.Join(failures, "\n  "))
	}
	return true, nil
}

// Format renders the diff as a table, flagging regressions per gated
// metric. Informational ratios (tails, flushes, wraps) ride along on
// the right.
func Format(w io.Writer, deltas []Delta, opts Options) {
	fmt.Fprintf(w, "%-42s %14s %14s %8s %8s %8s\n", "experiment/metric", "base ns/op", "cur ns/op", "ratio", "allocs", "MB/s")
	for _, d := range deltas {
		name := d.Experiment + "/" + d.Metric
		if d.Missing {
			fmt.Fprintf(w, "%-42s %14.0f %14s %8s %8s %8s  REGRESSED (missing)\n", name, d.BaseNs, "-", "-", "-", "-")
			continue
		}
		var why []string
		if d.NsRegressed {
			why = append(why, fmt.Sprintf("ns/op > +%.0f%%", opts.Tolerance*100))
		}
		if d.AllocsRegressed {
			why = append(why, fmt.Sprintf("allocs/op > +%.0f%%", opts.AllocsTolerance*100))
		}
		if d.MBsRegressed {
			why = append(why, fmt.Sprintf("MB/s < -%.0f%%", opts.MBsTolerance*100))
		}
		flag := ""
		if len(why) > 0 {
			flag = "  REGRESSED (" + strings.Join(why, ", ") + ")"
		}
		allocs, mbs := "-", "-"
		if d.AllocsRatio > 0 {
			allocs = fmt.Sprintf("%.2fx", d.AllocsRatio)
		}
		if d.MBsRatio > 0 {
			mbs = fmt.Sprintf("%.2fx", d.MBsRatio)
		}
		tails := ""
		if d.P95Ratio > 0 {
			tails = fmt.Sprintf("  p95 %.2fx", d.P95Ratio)
		}
		if d.P99Ratio > 0 {
			tails += fmt.Sprintf("  p99 %.2fx", d.P99Ratio)
		}
		if d.FlushRatio > 0 {
			tails += fmt.Sprintf("  flushes/op %.2fx", d.FlushRatio)
		}
		if d.WrapRatio > 0 {
			tails += fmt.Sprintf("  wraps/op %.2fx", d.WrapRatio)
		}
		if d.ProofBytesRatio > 0 {
			tails += fmt.Sprintf("  proof B/op %.2fx", d.ProofBytesRatio)
		}
		fmt.Fprintf(w, "%-42s %14.0f %14.0f %7.2fx %8s %8s%s%s\n", name, d.BaseNs, d.CurNs, d.Ratio, allocs, mbs, tails, flag)
	}
}

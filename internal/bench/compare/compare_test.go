package compare

import (
	"errors"
	"strings"
	"testing"

	"nexus/internal/bench"
)

func report(metrics map[string]float64) *bench.Report {
	r := bench.NewReport("test", 1)
	for name, ns := range metrics {
		r.Add("fileio", name, bench.Metric{NsPerOp: ns})
	}
	return r
}

func TestDiffWithinToleranceIsClean(t *testing.T) {
	base := report(map[string]float64{"write_read_1MB": 1000, "write_read_2MB": 2000})
	cur := report(map[string]float64{"write_read_1MB": 1150, "write_read_2MB": 1800})

	deltas, regressed, err := Diff(base, cur, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatalf("15%% slowdown flagged as regression at 20%% tolerance: %+v", deltas)
	}
	if len(deltas) != 2 {
		t.Fatalf("got %d deltas, want 2", len(deltas))
	}
}

func TestDiffFlagsRegressionBeyondTolerance(t *testing.T) {
	base := report(map[string]float64{"write_read_1MB": 1000})
	cur := report(map[string]float64{"write_read_1MB": 1201})

	deltas, regressed, err := Diff(base, cur, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Fatal("20.1% slowdown not flagged at 20% tolerance")
	}
	if !deltas[0].Regressed {
		t.Fatalf("delta not marked regressed: %+v", deltas[0])
	}
}

func TestDiffExactToleranceBoundaryPasses(t *testing.T) {
	base := report(map[string]float64{"m": 1000})
	cur := report(map[string]float64{"m": 1200})
	_, regressed, err := Diff(base, cur, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatal("exactly +20% should pass at 20% tolerance (strict >)")
	}
}

func TestDiffMissingMetricRegresses(t *testing.T) {
	base := report(map[string]float64{"write_read_1MB": 1000, "write_read_2MB": 2000})
	cur := report(map[string]float64{"write_read_1MB": 1000})

	deltas, regressed, err := Diff(base, cur, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Fatal("dropped baseline metric not flagged")
	}
	var missing *Delta
	for i := range deltas {
		if deltas[i].Metric == "write_read_2MB" {
			missing = &deltas[i]
		}
	}
	if missing == nil || !missing.Missing || !missing.Regressed {
		t.Fatalf("missing metric delta wrong: %+v", missing)
	}
}

// TestDiffGatedMetricWithoutBaselineIsTypedError is the regression
// test for the silent zero-ratio pass: a gated metric only the current
// report carries used to produce no delta row and a clean exit,
// leaving the new metric un-gated. It must now fail with
// *MissingBaselineError naming the metric.
func TestDiffGatedMetricWithoutBaselineIsTypedError(t *testing.T) {
	base := report(map[string]float64{"a": 100})
	cur := report(map[string]float64{"a": 100, "b": 999999})
	_, _, err := Diff(base, cur, 0.2)
	var missing *MissingBaselineError
	if !errors.As(err, &missing) {
		t.Fatalf("Diff error = %v, want *MissingBaselineError", err)
	}
	if missing.Experiment != "fileio" || missing.Metric != "b" {
		t.Fatalf("error names %s/%s, want fileio/b", missing.Experiment, missing.Metric)
	}
	if !strings.Contains(missing.Error(), "fileio/b") {
		t.Fatalf("error text does not name the metric: %v", missing)
	}
}

// TestDiffSeveralMissingBaselinesDeterministic pins which metric the
// typed error names when several are missing: the lexicographically
// first, so CI failures are stable across runs (map iteration order
// must not leak through).
func TestDiffSeveralMissingBaselinesDeterministic(t *testing.T) {
	base := report(map[string]float64{"a": 100})
	cur := report(map[string]float64{"a": 100, "z": 1, "b": 1, "m": 1})
	for i := 0; i < 10; i++ {
		_, _, err := Diff(base, cur, 0.2)
		var missing *MissingBaselineError
		if !errors.As(err, &missing) {
			t.Fatalf("Diff error = %v, want *MissingBaselineError", err)
		}
		if missing.Metric != "b" {
			t.Fatalf("run %d named %s, want the lexicographically first (b)", i, missing.Metric)
		}
	}
}

func TestDiffSchemaMismatch(t *testing.T) {
	base := report(map[string]float64{"a": 1})
	cur := report(map[string]float64{"a": 1})
	cur.Schema = bench.SchemaVersion + 1
	if _, _, err := Diff(base, cur, 0.2); err == nil {
		t.Fatal("schema mismatch not rejected")
	}
}

func TestFormatMarksRegressions(t *testing.T) {
	base := report(map[string]float64{"fast": 1000, "slow": 1000, "gone": 1000})
	cur := report(map[string]float64{"fast": 900, "slow": 5000})
	deltas, regressed, err := Diff(base, cur, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Fatal("expected regressions")
	}
	var sb strings.Builder
	Format(&sb, deltas, Options{Tolerance: 0.2})
	out := sb.String()
	if !strings.Contains(out, "REGRESSED") {
		t.Fatalf("no REGRESSED marker in output:\n%s", out)
	}
	if !strings.Contains(out, "missing") {
		t.Fatalf("no missing marker in output:\n%s", out)
	}
}

// metricReport builds a single-experiment report with full Metric
// values, for exercising the allocs/op and MB/s gates.
func metricReport(metrics map[string]bench.Metric) *bench.Report {
	r := bench.NewReport("test", 1)
	for name, m := range metrics {
		r.Add("crypto", name, m)
	}
	return r
}

func TestDiffGatesAllocsRise(t *testing.T) {
	base := metricReport(map[string]bench.Metric{"encrypt_w4": {NsPerOp: 1000, AllocsPerOp: 8}})
	cur := metricReport(map[string]bench.Metric{"encrypt_w4": {NsPerOp: 1000, AllocsPerOp: 9}})

	deltas, regressed, err := Diff(base, cur, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed || !deltas[0].AllocsRegressed {
		t.Fatalf("8→9 allocs/op (+12.5%%) not gated at +10%%: %+v", deltas[0])
	}
	if deltas[0].NsRegressed || deltas[0].MBsRegressed {
		t.Fatalf("unrelated gates fired: %+v", deltas[0])
	}

	// Within the band: 100 → 110 is exactly +10%, strict > passes it.
	base = metricReport(map[string]bench.Metric{"m": {NsPerOp: 1000, AllocsPerOp: 100}})
	cur = metricReport(map[string]bench.Metric{"m": {NsPerOp: 1000, AllocsPerOp: 110}})
	if _, regressed, _ := Diff(base, cur, 0.2); regressed {
		t.Fatal("exactly +10% allocs/op should pass (strict >)")
	}
}

func TestDiffGatesMBsDrop(t *testing.T) {
	base := metricReport(map[string]bench.Metric{"encrypt_w4": {NsPerOp: 1000, MBPerSec: 400}})
	cur := metricReport(map[string]bench.Metric{"encrypt_w4": {NsPerOp: 1000, MBPerSec: 299}})

	deltas, regressed, err := Diff(base, cur, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed || !deltas[0].MBsRegressed {
		t.Fatalf("400→299 MB/s (−25.25%%) not gated at −25%%: %+v", deltas[0])
	}

	// Exactly −25% passes (strict <).
	cur = metricReport(map[string]bench.Metric{"encrypt_w4": {NsPerOp: 1000, MBPerSec: 300}})
	if _, regressed, _ := Diff(base, cur, 0.2); regressed {
		t.Fatal("exactly -25% MB/s should pass (strict <)")
	}
}

func TestDiffSkipsGatesWhenEitherSideLacksFigure(t *testing.T) {
	// Baseline predates allocs/MBs instrumentation: only ns/op stamped.
	base := metricReport(map[string]bench.Metric{"m": {NsPerOp: 1000}})
	cur := metricReport(map[string]bench.Metric{"m": {NsPerOp: 1000, AllocsPerOp: 999, MBPerSec: 1}})
	deltas, regressed, err := Diff(base, cur, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatalf("gates fired with no baseline figure: %+v", deltas[0])
	}

	// And the reverse: current run didn't measure them.
	base = metricReport(map[string]bench.Metric{"m": {NsPerOp: 1000, AllocsPerOp: 8, MBPerSec: 400}})
	cur = metricReport(map[string]bench.Metric{"m": {NsPerOp: 1000}})
	if _, regressed, err := Diff(base, cur, 0.2); err != nil || regressed {
		t.Fatalf("gates fired with no current figure (regressed=%v, err=%v)", regressed, err)
	}
}

func TestDiffRefusesEnvMismatch(t *testing.T) {
	base := report(map[string]float64{"m": 1000})
	cur := report(map[string]float64{"m": 1000})
	base.CPUs = 4
	cur.CPUs = 1
	if _, _, err := Diff(base, cur, 0.2); err == nil || !strings.Contains(err.Error(), "cpus") {
		t.Fatalf("cpu-mismatched reports not refused: %v", err)
	}

	// -allow-env-mismatch overrides.
	if _, _, err := DiffOpts(base, cur, Options{Tolerance: 0.2, AllowEnvMismatch: true}); err != nil {
		t.Fatalf("AllowEnvMismatch did not override: %v", err)
	}

	// goarch mismatch refused too.
	base.CPUs = cur.CPUs
	cur.GOARCH = base.GOARCH + "-other"
	if _, _, err := Diff(base, cur, 0.2); err == nil || !strings.Contains(err.Error(), "architecture") {
		t.Fatalf("goarch-mismatched reports not refused: %v", err)
	}

	// Legacy reports without the stamps still diff (zero/empty skips).
	base = report(map[string]float64{"m": 1000})
	cur = report(map[string]float64{"m": 1000})
	base.CPUs, base.GOARCH = 0, ""
	if _, _, err := Diff(base, cur, 0.2); err != nil {
		t.Fatalf("legacy report without env stamps refused: %v", err)
	}
}

func TestDiffRejectsNegativeTolerances(t *testing.T) {
	base := report(map[string]float64{"m": 1})
	cur := report(map[string]float64{"m": 1})
	for _, opts := range []Options{
		{Tolerance: -0.1},
		{AllocsTolerance: -0.1},
		{MBsTolerance: -0.1},
	} {
		if _, _, err := DiffOpts(base, cur, opts); err == nil {
			t.Fatalf("negative tolerance accepted: %+v", opts)
		}
	}
}

func TestDiffProofBytesRatioIsInformational(t *testing.T) {
	mk := func(ns, proofBytes float64) *bench.Report {
		r := bench.NewReport("test", 1)
		r.Add("freshness_scale", "merkle_1000_objects", bench.Metric{
			NsPerOp:         ns,
			ProofBytesPerOp: proofBytes,
		})
		return r
	}
	// Proof bytes triple (a geometry change) while ns/op holds: the
	// ratio is reported but never gates.
	deltas, regressed, err := Diff(mk(1000, 400), mk(1000, 1200), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatalf("proof-bytes growth gated the diff: %+v", deltas)
	}
	if got := deltas[0].ProofBytesRatio; got < 2.99 || got > 3.01 {
		t.Fatalf("ProofBytesRatio = %v, want 3.0", got)
	}
	var sb strings.Builder
	Format(&sb, deltas, Options{Tolerance: 0.2})
	if !strings.Contains(sb.String(), "proof B/op 3.00x") {
		t.Fatalf("format missing informational proof-bytes tail:\n%s", sb.String())
	}
	// Absent on either side: ratio stays zero, nothing rendered.
	deltas, _, err = Diff(mk(1000, 0), mk(1000, 1200), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if deltas[0].ProofBytesRatio != 0 {
		t.Fatalf("ProofBytesRatio computed with missing baseline figure: %+v", deltas[0])
	}
}

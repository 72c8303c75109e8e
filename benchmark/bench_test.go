package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"nexus"
	"nexus/internal/enclave"
	"nexus/internal/vfs"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestDeclaredMetricsMatch keeps BENCHMARK.json and the program from
// drifting apart: same workloads, same metric names, units, directions
// and bounds.
func TestDeclaredMetricsMatch(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q (or the reasons differ)", i, doc.Workloads[i].Name, w.name)
		}
	}
	if len(doc.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the program %d", len(doc.EndToEnd), len(endToEndDefs))
	}
	for i, d := range endToEndDefs {
		got := doc.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, got, d)
		}
	}
	if len(doc.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the program %d", len(doc.PerLayer), len(perLayerDefs))
	}
	seen := make(map[string]bool)
	for i, d := range perLayerDefs {
		got := doc.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, got, d)
		}
		if seen[d.name] {
			t.Errorf("metric %s declared twice", d.name)
		}
		seen[d.name] = true
	}
}

func smokeRun(t *testing.T, w *workload, seed uint64, trace bool) result {
	t.Helper()
	res, _, err := runOnce(w, options{seed: seed, seconds: 0, trace: trace, size: "smoke", outDir: t.TempDir(), probes: smokeProbes})
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", w.name, seed, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s seed %d trace %v: correct=%v attempted=%d failed=%d", w.name, seed, trace, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// TestSmoke runs every workload at smoke size: every declared metric is
// emitted, finite, and nothing undeclared is; nothing fails; the count
// metrics repeat exactly for one seed and move with another.
func TestSmoke(t *testing.T) {
	counts := []string{"store_rpcs_per_op", "wire_bytes_per_user_byte", "stored_bytes_per_user_byte"}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			first, again, other := smokeRun(t, w, 1, false), smokeRun(t, w, 1, false), smokeRun(t, w, 2, false)
			traced := smokeRun(t, w, 1, true)
			for _, c := range []struct {
				res  result
				defs []metricDef
			}{{first, endToEndDefs}, {traced, perLayerDefs}} {
				if len(c.res.Metrics) != len(c.defs) {
					t.Errorf("%d metrics emitted, %d declared", len(c.res.Metrics), len(c.defs))
				}
				for _, d := range c.defs {
					m, ok := c.res.Metrics[d.name]
					if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s: emitted=%v value=%v unit=%q", d.name, ok, m.Value, m.Unit)
					}
				}
			}
			for _, d := range endToEndDefs {
				if first.Metrics[d.name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v; it must never be 0", d.name, first.Metrics[d.name].Value)
				}
			}
			if got := traced.Metrics["trace.count_mismatches"].Value; got != 0 {
				t.Errorf("traced and untraced blocks disagree on call counts %v times", got)
			}
			if got := traced.Metrics["trace.self_sum_frac"].Value; math.Abs(got-1) > 0.05 {
				t.Errorf("layer self times sum to %.3f of vfs.busy_s, want within 5 %%", got)
			}
			if got := traced.Metrics["afs.reconnects"].Value; got != 0 {
				t.Errorf("afs.reconnects = %v, want 0", got)
			}
			// share_revoke moves variable-length ASN.1 signatures, so only
			// its call counts repeat exactly; file_io's and share_revoke's
			// counts do not depend on the seed at all.
			same, differs := counts, w.name != "file_io" && w.name != "share_revoke"
			if w.name == "share_revoke" {
				same = counts[:1]
			}
			for _, name := range same {
				if a, b := first.Metrics[name].Value, again.Metrics[name].Value; a != b {
					t.Errorf("%s differs between two runs of seed 1: %v vs %v", name, a, b)
				}
			}
			if differs {
				moved := false
				for _, name := range counts {
					moved = moved || first.Metrics[name].Value != other.Metrics[name].Value
				}
				if !moved {
					t.Errorf("no count metric moved between seed 1 and seed 2")
				}
			}
		})
	}
}

// capabilities lists which optional store interfaces x offers.
func capabilities(x any) (c struct{ stream, freshness, instrument bool }) {
	_, c.stream = x.(enclave.StreamObjectStore)
	_, c.freshness = x.(enclave.FreshnessProofStore)
	_, c.instrument = x.(instrumenter)
	return c
}

// TestWrappersTransparent checks that the interposers neither hide nor
// invent an optional interface: the assertions the enclave and
// nexus.NewClient perform succeed on the wrapped stores exactly as on
// the bare ones, and a large write takes the streaming path.
func TestWrappersTransparent(t *testing.T) {
	s, err := newStack(newTracer(false), false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	m, err := s.newMachine(true, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, bare := range map[string]enclave.ObjectStore{
		"afs.Client":         m.afs,
		"vfs.VersionedStore": nexus.NewMemoryStore(),
	} {
		below, err := wrapStore(bare, s.tr, depthAFS, "afs", &storeCounts{}, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := capabilities(below), capabilities(bare); got != want || !got.stream || got.freshness {
			t.Errorf("%s: wrapper offers %+v, the store beneath %+v (must stream, must not serve proofs)", name, got, want)
		}
		proofs := vfs.NewFreshnessStore(below)
		above, err := wrapStore(proofs, s.tr, depthOcall, "store", &storeCounts{}, &freshCounts{})
		if err != nil {
			t.Fatalf("%s under the proof service: %v", name, err)
		}
		if got, want := capabilities(above), capabilities(proofs); got != want || !got.stream || !got.freshness {
			t.Errorf("%s under the proof service: wrapper offers %+v, the store beneath %+v (must stream and serve proofs)", name, got, want)
		}
	}

	// End to end: file_io at smoke size writes one file above
	// StreamPutCutoff; the enclave must find PutVersionedStream through
	// both wrappers, and the proof service must not be stacked twice
	// (one FreshnessUpdate per drain, not two).
	h := newHarness(fileIO, sizePresets["smoke"], 1, false)
	if err := h.measure(0); err != nil {
		t.Fatal(err)
	}
	if sizePresets["smoke"].ioBytes < 4<<20 {
		t.Fatalf("smoke file_io writes %d bytes, below the 4 MiB streaming cutoff", sizePresets["smoke"].ioBytes)
	}
	c := h.untraced.counts
	if c[cOcallStreams] != 2 || c[cLowStreams] != 2 {
		t.Errorf("streamed puts: %d at the ocall surface, %d at the AFS client, want 2 and 2 (write and edit)", c[cOcallStreams], c[cLowStreams])
	}
	if c[cFreshUpdates] == 0 || c[cFreshUpdates] > c[cOcallPuts] {
		t.Errorf("freshness updates = %d with %d puts: the proof service is missing or stacked twice", c[cFreshUpdates], c[cOcallPuts])
	}
}

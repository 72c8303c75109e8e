package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"

	"nexus/internal/obs"
)

// SchemaVersion is the version stamped into every JSON report. Bump it
// whenever the shape of Report changes incompatibly, so a reader can
// tell old reports from new ones.
const SchemaVersion = 1

// Metric is one measured quantity within an experiment. The percentile
// fields are populated from observability histogram snapshots; every
// field but NsPerOp is omitted when zero.
type Metric struct {
	NsPerOp  float64 `json:"ns_per_op"`
	MBPerSec float64 `json:"mb_per_sec,omitempty"`
	P50Ns    float64 `json:"p50_ns,omitempty"`
	P95Ns    float64 `json:"p95_ns,omitempty"`
	P99Ns    float64 `json:"p99_ns,omitempty"`
	// FlushesPerOp is metadata objects written per logical operation
	// (the metadata experiment's write-back efficiency figure).
	FlushesPerOp float64 `json:"flushes_per_op,omitempty"`
	// BytesPerOp is bytes transferred per operation (the freshness_scale
	// experiment's proof bytes per load).
	BytesPerOp float64 `json:"bytes_per_op,omitempty"`
	// TreeBytesPerMember and SupernodeBytes are the membership sweep's
	// (revoke_membership experiment) encoded member tree per member and
	// sealed supernode: what the membership costs every revoke, add and
	// mount, which move the supernode whole.
	TreeBytesPerMember float64 `json:"tree_bytes_per_member,omitempty"`
	SupernodeBytes     float64 `json:"supernode_bytes,omitempty"`
	// ProofBytesPerOp is the freshness evidence transferred per metadata
	// load, from the freshness_scale experiment: one encoded Merkle
	// proof.
	ProofBytesPerOp float64 `json:"proof_bytes_per_op,omitempty"`
	// UpdateBytesPerEpoch and EpochsPerCheckpoint are the update side of
	// the same experiment: bytes moved to and from the store's freshness
	// objects per one-leaf update epoch, checkpoints amortised, and the
	// length of a checkpoint cycle. TestFreshnessSweepScaling gates
	// their growth.
	UpdateBytesPerEpoch float64 `json:"update_bytes_per_epoch,omitempty"`
	EpochsPerCheckpoint float64 `json:"epochs_per_checkpoint,omitempty"`
}

// LatencyMetric converts a histogram snapshot into a Metric: the mean
// becomes ns/op and the tails ride along for percentile diffing. A
// never-recorded histogram yields the zero Metric.
func LatencyMetric(s obs.HistSnapshot) Metric {
	if s.Count == 0 {
		return Metric{}
	}
	return Metric{
		NsPerOp: float64(s.Mean()),
		P50Ns:   float64(s.P50Ns),
		P95Ns:   float64(s.P95Ns),
		P99Ns:   float64(s.P99Ns),
	}
}

// Experiment maps metric names (e.g. "write_read_1MB") to measurements.
type Experiment map[string]Metric

// Report is the machine-readable output of a nexus-bench run
// (BENCH_<rev>.json). The environment fields exist so a reader can tell
// whether two reports are comparable at all: timings move with the
// toolchain and the core count.
type Report struct {
	Schema      int                   `json:"schema"`
	Rev         string                `json:"rev"`
	GoVersion   string                `json:"go_version"`
	GOOS        string                `json:"goos"`
	GOARCH      string                `json:"goarch"`
	CPUs        int                   `json:"cpus"`
	Scale       int64                 `json:"scale"`
	Experiments map[string]Experiment `json:"experiments"`
}

// NewReport stamps a report with the current toolchain and machine.
// CPUs records GOMAXPROCS, not the physical core count: it is the
// number of CPUs the measured code could actually use.
func NewReport(rev string, scale int64) *Report {
	return &Report{
		Schema:      SchemaVersion,
		Rev:         rev,
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		CPUs:        runtime.GOMAXPROCS(0),
		Scale:       scale,
		Experiments: make(map[string]Experiment),
	}
}

// Add records one metric under the named experiment.
func (r *Report) Add(experiment, metric string, m Metric) {
	exp, ok := r.Experiments[experiment]
	if !ok {
		exp = make(Experiment)
		r.Experiments[experiment] = exp
	}
	exp[metric] = m
}

// Encode writes the report as indented JSON.
func (r *Report) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the report to path, replacing any existing file.
func (r *Report) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	if err := r.Encode(f); err != nil {
		_ = f.Close()
		return fmt.Errorf("bench: encode %s: %w", path, err)
	}
	return f.Close()
}

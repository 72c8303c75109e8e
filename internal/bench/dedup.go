package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sync/atomic"
	"time"

	"nexus"
	"nexus/internal/fsapi"
	"nexus/internal/workload"
)

// The dedup experiment (DESIGN.md §16) measures what the
// content-defined chunk store buys on the wire: two stacks — one
// fixed-size (the paper's layout), one content-defined — run the same
// workloads over a metered in-process store, and the rows report
// logical bytes written vs bytes actually uploaded. Unlike the latency
// experiments there is no network simulation: upload bytes are a
// deterministic property of the write path, so the in-process store
// measures them exactly.
//
// Two workloads bracket the design space:
//
//   - repeated-edit: one file, one flipped byte per op, full rewrite
//     through FS.WriteFile — the "save a large file in an editor"
//     pattern. Fixed-size re-seals and re-uploads every chunk; CDC
//     re-uploads only the chunks containing the edit.
//   - git-clone: the same synthetic repository tree materialized
//     twice — the "clone the repo again next to itself" pattern.
//     Identical plaintext stores once under CDC.

// dedupAvgChunk is the CDC average chunk size both arms are built
// with (the fixed arm ignores it for dedup purposes — its whole file
// re-uploads regardless of chunk granularity).
const dedupAvgChunk = 4096

// dedupEditOps is the number of single-byte-edit rewrites measured in
// the repeated-edit workload.
const dedupEditOps = 32

// DedupRow is one (workload, mode) cell of the dedup experiment.
type DedupRow struct {
	Workload string // "repeated-edit" or "git-clone"
	Mode     string // "fixed" or "cdc"
	Ops      int
	// LogicalBytes is plaintext handed to WriteFile across all ops;
	// UploadedBytes is what actually crossed the store's upload path
	// (chunks, data objects, and all metadata — filenodes, dirnodes,
	// ref table, freshness root).
	LogicalBytes  int64
	UploadedBytes int64
	Elapsed       time.Duration
}

// DedupRatio is logical bytes over uploaded bytes: >1 means the store
// transferred less than the application wrote.
func (r DedupRow) DedupRatio() float64 {
	if r.UploadedBytes == 0 {
		return 0
	}
	return float64(r.LogicalBytes) / float64(r.UploadedBytes)
}

// UploadedPerOp is the post-dedup upload cost of one operation.
func (r DedupRow) UploadedPerOp() float64 {
	if r.Ops == 0 {
		return 0
	}
	return float64(r.UploadedBytes) / float64(r.Ops)
}

// NsPerOp is the mean wall-clock per operation.
func (r DedupRow) NsPerOp() float64 {
	if r.Ops == 0 {
		return 0
	}
	return float64(r.Elapsed.Nanoseconds()) / float64(r.Ops)
}

// meteredStore wraps an ObjectStore and counts every uploaded byte.
// The freshness-proof wrapper the client adds by default sits above
// this, so Merkle root updates are billed like any other upload.
type meteredStore struct {
	inner    nexus.ObjectStore
	uploaded atomic.Int64
}

func (m *meteredStore) GetVersioned(name string) ([]byte, uint64, error) {
	return m.inner.GetVersioned(name)
}

func (m *meteredStore) PutVersioned(name string, data []byte) (uint64, error) {
	m.uploaded.Add(int64(len(data)))
	return m.inner.PutVersioned(name, data)
}

func (m *meteredStore) Delete(name string) error { return m.inner.Delete(name) }

func (m *meteredStore) Lock(name string) (func(), error) { return m.inner.Lock(name) }

// dedupStack builds one measured in-process stack: a memory store
// behind a byte meter, under a client with the given chunking mode.
func dedupStack(contentDefined bool) (*nexus.FS, *meteredStore, error) {
	meter := &meteredStore{inner: nexus.NewMemoryStore()}
	client, err := nexus.NewClient(nexus.ClientConfig{
		Store:          meter,
		ChunkSize:      dedupAvgChunk,
		ContentDefined: contentDefined,
	})
	if err != nil {
		return nil, nil, err
	}
	owner, err := nexus.NewIdentity("dedup-owner")
	if err != nil {
		return nil, nil, err
	}
	vol, _, err := client.CreateVolume(owner)
	if err != nil {
		return nil, nil, err
	}
	return vol.FS(), meter, nil
}

// Dedup runs both workloads under both chunking modes. Scale divides
// the repeated-edit file size (64 MiB nominal, so scale 1024 edits a
// 64 KiB file) and the clone tree's file sizes, like the latency
// experiments.
func Dedup(cfg Config) ([]DedupRow, error) {
	cfg = cfg.withDefaults()
	var rows []DedupRow
	for _, mode := range []struct {
		name string
		cdc  bool
	}{{"fixed", false}, {"cdc", true}} {
		edit, err := dedupRepeatedEdit(cfg, mode.name, mode.cdc)
		if err != nil {
			return nil, fmt.Errorf("dedup %s repeated-edit: %w", mode.name, err)
		}
		rows = append(rows, edit)
		clone, err := dedupGitClone(cfg, mode.name, mode.cdc)
		if err != nil {
			return nil, fmt.Errorf("dedup %s git-clone: %w", mode.name, err)
		}
		rows = append(rows, clone)
	}
	return rows, nil
}

func dedupRepeatedEdit(cfg Config, mode string, cdc bool) (DedupRow, error) {
	fs, meter, err := dedupStack(cdc)
	if err != nil {
		return DedupRow{}, err
	}
	size := int64(64<<20) / cfg.Scale
	if size < 16<<10 {
		size = 16 << 10
	}
	rng := rand.New(rand.NewSource(42))
	data := make([]byte, size)
	rng.Read(data)
	if err := fs.WriteFile("/f", data); err != nil {
		return DedupRow{}, err
	}
	// Measure steady-state edits, not the initial population.
	meter.uploaded.Store(0)
	start := time.Now()
	for i := 0; i < dedupEditOps; i++ {
		data[rng.Intn(len(data))] ^= 0xff
		if err := fs.WriteFile("/f", data); err != nil {
			return DedupRow{}, err
		}
	}
	return DedupRow{
		Workload:      "repeated-edit",
		Mode:          mode,
		Ops:           dedupEditOps,
		LogicalBytes:  int64(dedupEditOps) * size,
		UploadedBytes: meter.uploaded.Load(),
		Elapsed:       time.Since(start),
	}, nil
}

func dedupGitClone(cfg Config, mode string, cdc bool) (DedupRow, error) {
	fs, meter, err := dedupStack(cdc)
	if err != nil {
		return DedupRow{}, err
	}
	// The tree carries CI-sized files directly instead of dividing by
	// cfg.Scale: scaling a repository's files down to a few bytes each
	// leaves nothing but per-file metadata on the wire, and the
	// experiment is about content bytes. Files are sized well above the
	// 4 KiB average chunk for the same reason — per-write metadata
	// (dirnode, filenode, ref table, freshness root) is a fixed tax
	// that swamps sub-chunk files in either mode.
	tree := workload.Generate(workload.TreeSpec{
		Name: "dedup-repo", NumFiles: 24, NumDirs: 6, MaxDepth: 3,
		MinFileSize: 64 << 10, MaxFileSize: 1 << 20, Seed: 104,
	})
	logical := tree.TotalBytes
	start := time.Now()
	ops := 0
	for _, root := range []string{"/clone1", "/clone2"} {
		n, err := workload.Materialize(fsapi.Nexus(fs), root, tree, 1)
		if err != nil {
			return DedupRow{}, err
		}
		ops += n
	}
	// Bill a trailing Mkdir's metadata before the meter is read.
	if err := fs.Sync(); err != nil {
		return DedupRow{}, err
	}
	return DedupRow{
		Workload:      "git-clone",
		Mode:          mode,
		Ops:           ops,
		LogicalBytes:  2 * logical,
		UploadedBytes: meter.uploaded.Load(),
		Elapsed:       time.Since(start),
	}, nil
}

// PrintDedup renders the experiment as a table.
func PrintDedup(w io.Writer, rows []DedupRow) {
	fmt.Fprintln(w, "DESIGN.md §16 — Content-defined dedup: bytes uploaded vs bytes written")
	fmt.Fprintf(w, "%-14s %-6s %6s %12s %12s %8s %14s\n",
		"workload", "mode", "ops", "logical", "uploaded", "dedup", "uploaded/op")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-6s %6d %12s %12s %7.2fx %14s\n",
			r.Workload, r.Mode, r.Ops,
			fmtBytes(r.LogicalBytes), fmtBytes(r.UploadedBytes),
			r.DedupRatio(), fmtBytes(int64(r.UploadedPerOp())))
	}
	fmt.Fprintln(w)
}

// DedupMetrics converts rows into the dedup experiment's report entry.
// Every metric is informational: dedup ratios and upload costs move by
// design with workload content, so the compare gate shows them without
// failing on them.
func DedupMetrics(rows []DedupRow) Experiment {
	exp := Experiment{}
	for _, r := range rows {
		name := fmt.Sprintf("%s_%s", metricName(r.Workload), r.Mode)
		exp[name] = Metric{
			NsPerOp:            r.NsPerOp(),
			DedupRatio:         r.DedupRatio(),
			UploadedBytesPerOp: r.UploadedPerOp(),
			Informational:      true,
		}
	}
	return exp
}

// metricName converts a workload label to a metric-name token.
func metricName(workload string) string {
	out := make([]byte, len(workload))
	for i := 0; i < len(workload); i++ {
		c := workload[i]
		if c == '-' {
			c = '_'
		}
		out[i] = c
	}
	return string(out)
}

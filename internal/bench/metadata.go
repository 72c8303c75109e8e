package bench

import (
	"fmt"
	"io"
	"time"

	"nexus"
)

// MetadataRow measures the metadata-heavy workload: open n files with
// O_CREATE, write a small payload through each handle, then close them
// all. Every operation mutates metadata but moves almost no data, so
// the flush count dominates.
type MetadataRow struct {
	Files   int
	Elapsed time.Duration
	// Flushes is the number of metadata objects sealed and uploaded
	// during the workload; FlushesPerOp divides by the file count.
	Flushes      int64
	FlushesPerOp float64
}

// Metadata quantifies the write-back metadata layer on a freshly built
// testbed: it times the NEXUS-side open/write/close sweep and reads the
// enclave's flush counter across it.
func Metadata(cfg Config, files int) (MetadataRow, error) {
	if files <= 0 {
		files = 128
	}
	env, err := NewEnv(cfg)
	if err != nil {
		return MetadataRow{}, err
	}
	defer env.Close()
	fs := env.NexusVolume.FS()
	if err := fs.MkdirAll("/metadata"); err != nil {
		return MetadataRow{}, err
	}
	if err := fs.Sync(); err != nil {
		return MetadataRow{}, err
	}
	env.FlushCaches()
	payload := []byte("nexus metadata bench payload, 256B payload target....")
	before := env.Obs.CounterValue("enclave_metadata_flushes_total")
	start := time.Now()
	handles := make([]*nexus.File, 0, files)
	for i := 0; i < files; i++ {
		f, err := fs.Open(fmt.Sprintf("/metadata/f%06d", i), nexus.O_RDWR|nexus.O_CREATE)
		if err != nil {
			return MetadataRow{}, err
		}
		handles = append(handles, f)
	}
	for _, f := range handles {
		if _, err := f.Write(payload); err != nil {
			return MetadataRow{}, err
		}
	}
	for _, f := range handles {
		if err := f.Close(); err != nil {
			return MetadataRow{}, err
		}
	}
	elapsed := time.Since(start)
	flushes := env.Obs.CounterValue("enclave_metadata_flushes_total") - before
	return MetadataRow{
		Files:        files,
		Elapsed:      elapsed,
		Flushes:      flushes,
		FlushesPerOp: float64(flushes) / float64(files),
	}, nil
}

// PrintMetadata renders the write-back flush table.
func PrintMetadata(w io.Writer, r MetadataRow) {
	fmt.Fprintf(w, "Metadata flushing — create+write+close of %d files (NEXUS side only)\n", r.Files)
	fmt.Fprintf(w, "%12s %10s %12s\n", "latency", "flushes", "flushes/op")
	fmt.Fprintf(w, "%12s %10d %11.2f\n", fmtDur(r.Elapsed), r.Flushes, r.FlushesPerOp)
	fmt.Fprintln(w)
}

// MetadataMetrics converts the row into the report's "writeback" metric.
func MetadataMetrics(r MetadataRow) Experiment {
	return Experiment{"writeback": Metric{
		NsPerOp:      float64(r.Elapsed.Nanoseconds()) / float64(r.Files),
		FlushesPerOp: r.FlushesPerOp,
	}}
}

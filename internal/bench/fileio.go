package bench

import (
	"fmt"
	"io"
	"time"

	"nexus/internal/fsapi"
	"nexus/internal/workload"
)

// FileIORow is one column of Table 5a: the latency of writing and
// reading back a file of the given size with cold caches, with the
// NEXUS-side breakdown into metadata I/O and enclave runtime.
type FileIORow struct {
	SizeMB     int
	OpenAFS    time.Duration
	Nexus      time.Duration
	MetadataIO time.Duration
	Enclave    time.Duration
}

// FileIO reproduces Table 5a ("Latency of File I/O operations") for the
// given file sizes in MiB. The paper uses 1, 2, 16 and 64 MiB. Before the
// first size, one untimed pass of it runs on both stacks, so that column
// does not carry the stacks' start-up cost.
func FileIO(env *Env, sizesMB []int) ([]FileIORow, error) {
	rows := make([]FileIORow, 0, len(sizesMB))
	content := workload.NewContent(1)
	mkdir := func(fs fsapi.FileSystem, root string) error {
		return fs.MkdirAll(root)
	}
	for i, mb := range sizesMB {
		size := int64(mb) << 20 / env.Config.Scale
		if size < 1 {
			size = 1
		}
		data := content.Fill(size)
		if i == 0 {
			for _, fs := range []fsapi.FileSystem{env.PlainFS, env.NexusFS} {
				if err := mkdir(fs, "/warm-up"); err != nil {
					return nil, fmt.Errorf("file I/O warm-up: %w", err)
				}
				if err := writeRead(env, data)(fs, "/warm-up"); err != nil {
					return nil, fmt.Errorf("file I/O warm-up: %w", err)
				}
			}
		}

		var split Split
		plain, nx, err := env.Both(mkdir, env.measure(nil, &split, writeRead(env, data)))
		if err != nil {
			return nil, fmt.Errorf("file I/O %d MB: %w", mb, err)
		}
		runs := time.Duration(env.Config.Runs)
		rows = append(rows, FileIORow{
			SizeMB:     mb,
			OpenAFS:    plain,
			Nexus:      nx,
			MetadataIO: split.MetadataIO / runs,
			Enclave:    split.Enclave / runs,
		})
	}
	return rows, nil
}

// writeRead is one Table 5a run: write data (encrypt and upload under
// NEXUS), drop caches so the read requires a server trip, then read it
// back.
func writeRead(env *Env, data []byte) func(fs fsapi.FileSystem, root string) error {
	return func(fs fsapi.FileSystem, root string) error {
		name := root + "/file.bin"
		if err := fs.WriteFile(name, data); err != nil {
			return err
		}
		env.FlushCaches()
		got, err := fs.ReadFile(name)
		if err != nil {
			return err
		}
		if len(got) != len(data) {
			return fmt.Errorf("read %d bytes, want %d", len(got), len(data))
		}
		return nil
	}
}

// PrintFileIO renders Table 5a.
func PrintFileIO(w io.Writer, rows []FileIORow) {
	fmt.Fprintln(w, "Table 5a — Latency of File I/O operations (write + cold read)")
	fmt.Fprintf(w, "%-14s", "Prototype")
	for _, r := range rows {
		fmt.Fprintf(w, "%10dMB", r.SizeMB)
	}
	fmt.Fprintln(w)
	line := func(name string, get func(FileIORow) time.Duration) {
		fmt.Fprintf(w, "%-14s", name)
		for _, r := range rows {
			fmt.Fprintf(w, "%12s", fmtDur(get(r)))
		}
		fmt.Fprintln(w)
	}
	line("OpenAFS", func(r FileIORow) time.Duration { return r.OpenAFS })
	line("NEXUS", func(r FileIORow) time.Duration { return r.Nexus })
	line("  MetadataIO", func(r FileIORow) time.Duration { return r.MetadataIO })
	line("  Enclave", func(r FileIORow) time.Duration { return r.Enclave })
	fmt.Fprintln(w)
}

// DirOpsRow is one column of Table 5b: creating then deleting n files in
// a single flat directory. NexusSynced is NEXUS with a Sync after every
// op, which is what the paper's prototype paid: it flushed every metadata
// update where this one flushes write-back.
type DirOpsRow struct {
	NumFiles    int
	OpenAFS     time.Duration
	Nexus       time.Duration
	MetadataIO  time.Duration
	Enclave     time.Duration
	NexusSynced time.Duration
}

// DirOps reproduces Table 5b ("Latency of directory operations"). The
// paper uses 1024, 2048, 4096 and 8192 files.
func DirOps(env *Env, counts []int) ([]DirOpsRow, error) {
	rows := make([]DirOpsRow, 0, len(counts))
	mkdir := func(fs fsapi.FileSystem, root string) error {
		return fs.MkdirAll(root)
	}
	for _, n := range counts {
		var split Split
		plain, nx, err := env.Both(mkdir, env.measure(nil, &split, createDelete(n, func() error { return nil })))
		if err != nil {
			return nil, fmt.Errorf("dir ops %d files: %w", n, err)
		}
		synced, err := env.timeRuns(env.NexusFS, "/bench-nexus-synced", mkdir, createDelete(n, env.NexusVolume.FS().Sync))
		if err != nil {
			return nil, fmt.Errorf("dir ops %d files, synced: %w", n, err)
		}
		runs := time.Duration(env.Config.Runs)
		rows = append(rows, DirOpsRow{
			NumFiles:    n,
			OpenAFS:     plain,
			Nexus:       nx,
			MetadataIO:  split.MetadataIO / runs,
			Enclave:     split.Enclave / runs,
			NexusSynced: synced,
		})
	}
	return rows, nil
}

// createDelete creates n files in root, then deletes them, calling sync
// after every op.
func createDelete(n int, sync func() error) func(fs fsapi.FileSystem, root string) error {
	return func(fs fsapi.FileSystem, root string) error {
		for _, op := range []func(string) error{fs.Touch, fs.Remove} {
			for i := 0; i < n; i++ {
				if err := op(fmt.Sprintf("%s/f%06d", root, i)); err != nil {
					return err
				}
				if err := sync(); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// PrintDirOps renders Table 5b.
func PrintDirOps(w io.Writer, rows []DirOpsRow) {
	fmt.Fprintln(w, "Table 5b — Latency of directory operations (create + delete)")
	fmt.Fprintf(w, "%-14s", "Prototype")
	for _, r := range rows {
		fmt.Fprintf(w, "%12d", r.NumFiles)
	}
	fmt.Fprintln(w)
	line := func(name string, get func(DirOpsRow) time.Duration) {
		fmt.Fprintf(w, "%-14s", name)
		for _, r := range rows {
			fmt.Fprintf(w, "%12s", fmtDur(get(r)))
		}
		fmt.Fprintln(w)
	}
	line("OpenAFS", func(r DirOpsRow) time.Duration { return r.OpenAFS })
	line("NEXUS", func(r DirOpsRow) time.Duration { return r.Nexus })
	line("  MetadataIO", func(r DirOpsRow) time.Duration { return r.MetadataIO })
	line("  Enclave", func(r DirOpsRow) time.Duration { return r.Enclave })
	line("NEXUS, Sync/op", func(r DirOpsRow) time.Duration { return r.NexusSynced })
	fmt.Fprintln(w)
}

// fmtDur renders durations compactly with two significant decimals.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	}
}

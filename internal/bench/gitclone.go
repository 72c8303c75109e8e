package bench

import (
	"fmt"
	"io"
	"time"

	"nexus/internal/fsapi"
	"nexus/internal/workload"
)

// GitCloneRow is one bar pair of Fig. 5c: the latency of cloning (i.e.
// materializing) a repository tree into the volume, and the AFS RPCs
// each stack's client made in it per created file.
type GitCloneRow struct {
	Repo     string
	NumFiles int
	NumDirs  int
	OpenAFS  time.Duration
	Nexus    time.Duration
	Overhead float64

	OpenAFSRPCsPerFile float64
	NexusRPCsPerFile   float64
}

// GitClone reproduces Fig. 5c ("Latency for cloning Git repositories")
// over the given tree specs (paper: redis, julia, nodejs).
func GitClone(env *Env, specs []workload.TreeSpec) ([]GitCloneRow, error) {
	rows := make([]GitCloneRow, 0, len(specs))
	for _, spec := range specs {
		tree := workload.Generate(spec)
		var plainSplit, split Split
		plain, nx, err := env.Both(
			nil,
			env.measure(&plainSplit, &split, func(fs fsapi.FileSystem, root string) error {
				_, err := workload.Materialize(fs, root, tree, env.Config.Scale)
				return err
			}),
		)
		if err != nil {
			return nil, fmt.Errorf("git clone %s: %w", spec.Name, err)
		}
		files := float64(env.Config.Runs * len(tree.Files))
		rows = append(rows, GitCloneRow{
			Repo:               spec.Name,
			NumFiles:           len(tree.Files),
			NumDirs:            len(tree.Dirs),
			OpenAFS:            plain,
			Nexus:              nx,
			Overhead:           ratio(plain, nx),
			OpenAFSRPCsPerFile: float64(plainSplit.RPCs) / files,
			NexusRPCsPerFile:   float64(split.RPCs) / files,
		})
	}
	return rows, nil
}

// PrintGitClone renders Fig. 5c as a table.
func PrintGitClone(w io.Writer, rows []GitCloneRow) {
	fmt.Fprintln(w, "Fig 5c — Latency for cloning Git repositories")
	fmt.Fprintf(w, "%-10s %8s %6s %12s %12s %10s %14s %14s\n",
		"repo", "files", "dirs", "openafs", "nexus", "overhead", "openafs rpc/f", "nexus rpc/f")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %8d %6d %12s %12s %9.2fx %14.2f %14.2f\n",
			r.Repo, r.NumFiles, r.NumDirs, fmtDur(r.OpenAFS), fmtDur(r.Nexus), r.Overhead,
			r.OpenAFSRPCsPerFile, r.NexusRPCsPerFile)
	}
	fmt.Fprintln(w)
}

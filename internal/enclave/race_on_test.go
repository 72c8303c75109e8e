//go:build race

package enclave

// raceEnabled: under the race detector sync.Pool drops a share of what
// is put back, so tests assert only what the arena guarantees.
const raceEnabled = true

package lint

// Per-package configuration of secret-taint. Source name patterns are
// in boundary.go (keyMaterialName, shared with the enclave-boundary
// rule); the extra sources, sanitizers and sinks are below. The maps are
// keyed by module-relative package directory; the empty key "" applies
// to every package.

import (
	"go/types"
	"strings"
)

// taintExtraSources adds per-package identifier substrings (lowercase)
// that mark raw key material beyond keyMaterialName's global list.
var taintExtraSources = map[string][]string{
	"internal/enclave": {"volumekey", "filekey"},
	"internal/sgx":     {"volumekey"},
	"internal/gcmsiv":  {"derivedkey"},
}

// taintSanitizerNames: a call to a function whose name contains one of
// these substrings (case-insensitively) produces a *protected* form —
// its result is clean no matter what flowed in. The deny list guards
// against the inverse operations, whose names embed the allow words.
var taintSanitizerDeny = []string{"unseal", "unwrap", "decrypt"}
var taintSanitizerNames = map[string][]string{
	"": {"seal", "wrap", "encrypt"},
}

// isSanitizer reports whether a resolved callee is a configured
// sanitizer for the package it is defined in.
func isSanitizer(m *Module, fn *types.Func) bool {
	name := strings.ToLower(fn.Name())
	for _, deny := range taintSanitizerDeny {
		if strings.Contains(name, deny) {
			return false
		}
	}
	rel := ""
	if fn.Pkg() != nil {
		rel = strings.TrimPrefix(fn.Pkg().Path(), m.Path+"/")
	}
	for _, key := range []string{"", rel} {
		for _, pat := range taintSanitizerNames[key] {
			if strings.Contains(name, pat) {
				return true
			}
		}
	}
	return false
}

// sinkSpec describes one secret-taint sink: which arguments of a call
// must stay clean.
type sinkSpec struct {
	desc string
	// args returns the checked argument indices for a call with n
	// arguments.
	args func(n int) []int
}

func argsFrom(start int) func(int) []int {
	return func(n int) []int {
		var out []int
		for i := start; i < n; i++ {
			out = append(out, i)
		}
		return out
	}
}

func argOnly(i int) func(int) []int {
	return func(n int) []int {
		if i < n {
			return []int{i}
		}
		return nil
	}
}

// fmtSinkNames are the fmt functions whose arguments become
// attacker-visible text (Errorf wraps into error chains the untrusted
// caller may log; Sprint* builds strings that typically land in one).
var fmtSinkNames = map[string]bool{
	"Errorf": true, "Sprintf": true, "Sprint": true, "Sprintln": true,
	"Printf": true, "Print": true, "Println": true,
	"Fprintf": true, "Fprint": true, "Fprintln": true,
}

// sinkSpecFor resolves a callee to a sink spec, if it is one.
// External sinks: fmt/log/errors. Module sinks: obs span tags (span
// output is exported via the trace printer) and untrusted-store
// uploads (backend.Store.Put / PutVersioned and their afs client
// implementations) — raw key bytes must be sealed before either.
func sinkSpecFor(m *Module, fn *types.Func) (sinkSpec, bool) {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	name := fn.Name()
	switch pkg {
	case "fmt":
		if fmtSinkNames[name] {
			return sinkSpec{desc: "fmt." + name, args: argsFrom(0)}, true
		}
	case "log":
		return sinkSpec{desc: "log." + name, args: argsFrom(0)}, true
	case "errors":
		if name == "New" {
			return sinkSpec{desc: "errors.New", args: argOnly(0)}, true
		}
	}
	rel := strings.TrimPrefix(pkg, m.Path+"/")
	switch {
	case rel == "internal/obs" && (name == "SetTag"):
		return sinkSpec{desc: "obs span tag (Span.SetTag)", args: argOnly(1)}, true
	case (rel == "internal/backend" || rel == "internal/afs" || rel == "internal/vfs") &&
		(name == "Put" || name == "PutVersioned"):
		return sinkSpec{desc: rel + " store upload (" + name + ")", args: argOnly(1)}, true
	}
	return sinkSpec{}, false
}

// lockedNameSuffix reports the repo's *Locked naming convention
// ("Unlocked" is the opposite claim and must not match).
func lockedNameSuffix(name string) bool {
	return hasSuffixFold(name, "locked") && !hasSuffixFold(name, "unlocked")
}

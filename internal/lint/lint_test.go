package lint

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// analyzeFixture writes the given files into a temp module named
// "fixture", loads it through the real loader (stdlib source importer and
// all), and returns the analysis result. Keys are module-relative paths
// like "internal/enclave/x.go".
func analyzeFixture(t *testing.T, files map[string]string) *Result {
	t.Helper()
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module fixture\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Run(root)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// wantLines returns "x.go:N" for every fixture line marked //WANT.
func wantLines(src string) []string {
	var out []string
	for i, line := range strings.Split(src, "\n") {
		if strings.Contains(line, "//WANT") {
			out = append(out, "x.go:"+strconv.Itoa(i+1))
		}
	}
	return out
}

// findingsFor filters findings to one rule, formatted "file:line".
func findingsFor(res *Result, rule string) []string {
	var out []string
	for _, f := range res.Findings {
		if f.Rule == rule {
			out = append(out, filepath.Base(f.Pos.Filename)+":"+strconv.Itoa(f.Pos.Line))
		}
	}
	return out
}

// expect asserts the rule fired exactly at the given file:line positions.
func expect(t *testing.T, res *Result, rule string, want ...string) {
	t.Helper()
	got := findingsFor(res, rule)
	if len(got) != len(want) {
		t.Fatalf("%s: got %d finding(s) %v, want %v\nall findings: %v",
			rule, len(got), got, want, res.Findings)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: finding %d at %s, want %s", rule, i, got[i], want[i])
		}
	}
}

func TestFindingString(t *testing.T) {
	res := analyzeFixture(t, map[string]string{
		"internal/enclave/x.go": `package enclave
import "crypto/rand"
func F(b []byte) { rand.Read(b) }
`,
	})
	if len(res.Findings) != 1 {
		t.Fatalf("findings = %v, want 1", res.Findings)
	}
	s := res.Findings[0].String()
	if !strings.Contains(s, "x.go:3: [unchecked-crypto-error]") {
		t.Fatalf("String() = %q, want file:line: [RULE] form", s)
	}
}

func TestSuppressionDirective(t *testing.T) {
	res := analyzeFixture(t, map[string]string{
		"internal/enclave/x.go": `package enclave
import "crypto/rand"
func F(b []byte) {
	//lint:ignore unchecked-crypto-error fixture exercises the directive
	rand.Read(b)
}
`,
	})
	expect(t, res, RuleCryptoErr) // suppressed
	if res.Suppressed != 1 {
		t.Fatalf("Suppressed = %d, want 1", res.Suppressed)
	}
}

func TestSuppressionSameLine(t *testing.T) {
	res := analyzeFixture(t, map[string]string{
		"internal/enclave/x.go": `package enclave
import "crypto/rand"
func F(b []byte) {
	rand.Read(b) //lint:ignore unchecked-crypto-error same-line placement
}
`,
	})
	expect(t, res, RuleCryptoErr)
	if res.Suppressed != 1 {
		t.Fatalf("Suppressed = %d, want 1", res.Suppressed)
	}
}

func TestSuppressionWrongRuleDoesNotApply(t *testing.T) {
	res := analyzeFixture(t, map[string]string{
		"internal/enclave/x.go": `package enclave
import "crypto/rand"
func F(b []byte) {
	//lint:ignore lock-discipline wrong rule named
	rand.Read(b)
}
`,
	})
	expect(t, res, RuleCryptoErr, "x.go:5")
	if res.Suppressed != 0 {
		t.Fatalf("Suppressed = %d, want 0", res.Suppressed)
	}
}

func TestMalformedDirectiveReported(t *testing.T) {
	res := analyzeFixture(t, map[string]string{
		"a/x.go": `package a
//lint:ignore
func F() {}
`,
		"b/x.go": `package b
//lint:ignore no-such-rule because
func F() {}
`,
	})
	got := findingsFor(res, RuleDirective)
	if len(got) != 2 {
		t.Fatalf("directive findings = %v, want 2", res.Findings)
	}
}

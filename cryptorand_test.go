package nexus_test

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestCryptoPackagesAvoidMathRand: the packages that draw keys, IVs and
// nonces take randomness from crypto/rand alone — no non-test file in
// them imports math/rand or math/rand/v2 (DESIGN.md §8.1).
func TestCryptoPackagesAvoidMathRand(t *testing.T) {
	for _, dir := range []string{"enclave", "sgx", "gcmsiv", "metadata", "cryptofs", "freshtree"} {
		files, err := filepath.Glob(filepath.Join("internal", dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("internal/%s: no Go files (%v)", dir, err)
		}
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range f.Imports {
				if path, _ := strconv.Unquote(spec.Path.Value); path == "math/rand" || path == "math/rand/v2" {
					t.Errorf("%s imports %s; key and nonce material must come from crypto/rand", name, path)
				}
			}
		}
	}
}

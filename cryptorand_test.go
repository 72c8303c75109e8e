package nexus_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// cryptoBearing are the module-relative packages that draw or hold keys,
// IVs and nonces, or verify what a key sealed: merkle.Proof.Verify's error
// is the rollback check of DESIGN.md §15. Both tests in this file read it.
var cryptoBearing = []string{
	"internal/enclave", "internal/sgx", "internal/gcmsiv", "internal/metadata",
	"internal/cryptofs", "internal/freshtree", "internal/merkle",
}

// TestCryptoPackagesAvoidMathRand: the crypto-bearing packages take
// randomness from crypto/rand alone — no non-test file in them imports
// math/rand or math/rand/v2 (DESIGN.md §8).
func TestCryptoPackagesAvoidMathRand(t *testing.T) {
	for _, dir := range cryptoBearing {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no Go files (%v)", dir, err)
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

// listedPackage is the part of `go list -json` output the checks read.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

// listModule lists every package of the module and of its dependencies,
// with the compiler's export data, in one `go list -export -deps`.
func listModule(t *testing.T) []listedPackage {
	t.Helper()
	out, err := exec.Command("go", "list", "-export", "-deps", "-json", "./...").Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			t.Fatalf("go list: %v\n%s", err, ee.Stderr)
		}
		t.Fatalf("go list: %v", err)
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
}

// exportImporter resolves every import from the export data go list
// reported, so nothing is type-checked from source but the package under
// test.
func exportImporter(fset *token.FileSet, pkgs []listedPackage) types.Importer {
	export := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		export[p.ImportPath] = p.Export
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := export[path]
		if !ok || file == "" {
			return nil, errors.New("no export data for " + path)
		}
		return os.Open(file)
	})
}

// TestCryptoErrorsChecked: no error of a crypto call, and no bool of a
// Verify, is discarded in a non-test file of the module. A swallowed
// rand.Read failure silently yields an all-zero key; a swallowed Open
// error accepts forged ciphertext (DESIGN.md §8). A call is a crypto call
// when its callee is in a crypto/* package of the standard library or in
// a crypto-bearing package of the module. The subtests run the check on
// cryptoErrFixtures first, then on every package of the module ("module
// sweep").
func TestCryptoErrorsChecked(t *testing.T) {
	pkgs := listModule(t)
	fset := token.NewFileSet()
	imp := exportImporter(fset, pkgs)
	for _, tc := range cryptoErrFixtures {
		t.Run(tc.name, func(t *testing.T) {
			f, err := parser.ParseFile(fset, "x.go", tc.src, 0)
			if err != nil {
				t.Fatal(err)
			}
			var got, want []string
			for _, finding := range discardedCryptoResults(t, fset, imp, tc.path, []*ast.File{f}) {
				got = append(got, strings.SplitN(finding, ": ", 2)[0])
			}
			for i, line := range strings.Split(tc.src, "\n") {
				if strings.Contains(line, "//WANT") {
					want = append(want, "x.go:"+strconv.Itoa(i+1))
				}
			}
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Fatalf("findings at %v, want %v", got, want)
			}
		})
	}
	t.Run("module sweep", func(t *testing.T) {
		checked := 0
		for _, p := range pkgs {
			if p.Standard || len(p.GoFiles) == 0 {
				continue
			}
			var files []*ast.File
			for _, name := range p.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, f)
			}
			for _, finding := range discardedCryptoResults(t, fset, imp, p.ImportPath, files) {
				t.Errorf("%s: %s", p.ImportPath, finding)
			}
			checked++
		}
		if checked == 0 {
			t.Fatal("go list reported no package of the module")
		}
	})
}

// discardedCryptoResults type-checks one package and returns a
// "file:line: message" line for every crypto result it discards: a bare
// expression statement, go or defer of a crypto call, or an assignment of
// one whose last left-hand side is the blank identifier.
func discardedCryptoResults(t *testing.T, fset *token.FileSet, imp types.Importer, path string, files []*ast.File) []string {
	t.Helper()
	info := &types.Info{Uses: make(map[*ast.Ident]types.Object)}
	conf := types.Config{Importer: imp}
	if _, err := conf.Check(path, fset, files, info); err != nil {
		t.Fatalf("type-checking %s: %v", path, err)
	}
	var out []string
	flag := func(n ast.Node, call *ast.CallExpr) {
		if fn, what := cryptoResultToCheck(info, call); fn != nil {
			pos := fset.Position(n.Pos())
			out = append(out, filepath.Base(pos.Filename)+":"+strconv.Itoa(pos.Line)+": "+
				what+" of crypto call "+fn.Pkg().Name()+"."+fn.Name()+" discarded; crypto failures must be handled")
		}
	}
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				if call, ok := stmt.X.(*ast.CallExpr); ok {
					flag(stmt, call)
				}
			case *ast.GoStmt:
				flag(stmt, stmt.Call)
			case *ast.DeferStmt:
				flag(stmt, stmt.Call)
			case *ast.AssignStmt:
				// The checked result is the last one; it is discarded
				// when the final left-hand side is the blank identifier.
				last, ok := stmt.Lhs[len(stmt.Lhs)-1].(*ast.Ident)
				if !ok || last.Name != "_" || len(stmt.Rhs) != 1 {
					return true
				}
				if call, ok := ast.Unparen(stmt.Rhs[0]).(*ast.CallExpr); ok {
					flag(stmt, call)
				}
			}
			return true
		})
	}
	return out
}

// cryptoResultToCheck returns the function call invokes and a description
// of its final result ("error result" or "verification result") when call
// is a crypto call whose final result demands checking, else nil.
func cryptoResultToCheck(info *types.Info, call *ast.CallExpr) (*types.Func, string) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil, ""
	}
	fn, _ := info.Uses[id].(*types.Func)
	if fn == nil || fn.Pkg() == nil || !cryptoRelevantPkg(fn.Pkg().Path()) {
		return nil, ""
	}
	res := fn.Type().(*types.Signature).Results()
	if res.Len() == 0 {
		return nil, ""
	}
	last := res.At(res.Len() - 1).Type()
	if last.String() == "error" {
		return fn, "error result"
	}
	if b, ok := last.Underlying().(*types.Basic); ok && b.Kind() == types.Bool &&
		strings.Contains(fn.Name(), "Verify") {
		return fn, "verification result"
	}
	return nil, ""
}

// cryptoRelevantPkg reports whether the package at path holds
// cryptographic code whose errors are security-relevant.
func cryptoRelevantPkg(path string) bool {
	if path == "crypto" || strings.HasPrefix(path, "crypto/") {
		return true
	}
	rel, ok := strings.CutPrefix(path, "nexus/")
	return ok && slices.Contains(cryptoBearing, rel)
}

// cryptoErrFixtures are in-memory packages, each type-checked under the
// import path given: every line marked //WANT, and no other, is a finding.
var cryptoErrFixtures = []struct {
	name string
	path string // the import path the fixture is type-checked under
	src  string
}{
	{
		name: "rand.Read error dropped to blank",
		path: "nexus/internal/metadata",
		src: `package metadata
import "crypto/rand"
func F(b []byte) {
_, _ = rand.Read(b) //WANT
}
`,
	},
	{
		name: "rand.Read as bare statement",
		path: "nexus/internal/metadata",
		src: `package metadata
import "crypto/rand"
func F(b []byte) {
rand.Read(b) //WANT
}
`,
	},
	{
		name: "AEAD Open error dropped",
		path: "nexus/internal/cryptofs",
		src: `package cryptofs
import (
"crypto/aes"
"crypto/cipher"
)
func F(ct []byte) []byte {
b, err := aes.NewCipher(make([]byte, 16))
if err != nil {
	panic(err)
}
g, err := cipher.NewGCM(b)
if err != nil {
	panic(err)
}
pt, _ := g.Open(nil, ct[:12], ct[12:], nil) //WANT
return pt
}
`,
	},
	{
		name: "ed25519 Verify result dropped",
		path: "nexus/internal/enclave",
		src: `package enclave
import "crypto/ed25519"
func F(pub ed25519.PublicKey, msg, sig []byte) {
ed25519.Verify(pub, msg, sig) //WANT
}
`,
	},
	{
		name: "repo crypto package error dropped in deferred call",
		path: "nexus/pkg",
		src: `package pkg
import "nexus/internal/sgx"
func F(e *sgx.Enclave) {
defer e.Seal(nil, nil) //WANT
}
`,
	},
	{
		name: "merkle proof Verify error dropped",
		path: "nexus/internal/enclave",
		src: `package enclave
import (
"nexus/internal/merkle"
"nexus/internal/uuid"
)
func F(p *merkle.Proof, root [merkle.HashSize]byte, id uuid.UUID) bool {
_, present, _ := p.Verify(root, id) //WANT
return present
}
`,
	},
	{
		name: "checked errors are clean",
		path: "nexus/internal/metadata",
		src: `package metadata
import "crypto/rand"
func F(b []byte) error {
if _, err := rand.Read(b); err != nil {
	return err
}
n, err := rand.Read(b)
_ = n
return err
}
`,
	},
	{
		name: "non-crypto errors not this rule's business",
		path: "nexus/pkg",
		src: `package pkg
import "os"
func F() {
os.Remove("scratch") // unchecked, but not crypto
}
`,
	},
}

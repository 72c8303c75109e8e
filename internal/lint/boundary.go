package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// keyMaterialName reports whether an identifier's name denotes RAW key
// material: the volume rootkey, SGX sealing/fuse keys, or per-object
// wrapping/body keys (DSN'19 §IV-A, §VI-B). Names that carry the sealed,
// wrapped, or encrypted form are allowed — producing those is exactly what
// the enclave boundary exists for.
func keyMaterialName(name string) bool {
	l := strings.ToLower(name)
	for _, ok := range []string{"sealed", "wrapped", "encrypted", "cipher"} {
		if strings.Contains(l, ok) {
			return false
		}
	}
	for _, bad := range []string{
		"rootkey", "root_key",
		"sealingkey", "sealing_key", "sealkey", "seal_key",
		"fusekey", "fuse_key",
		"wrappingkey", "wrapping_key", "wrapkey", "wrap_key",
		"bodykey", "body_key",
		"masterkey", "master_key",
	} {
		if strings.Contains(l, bad) {
			return true
		}
	}
	return false
}

// keyMaterialType reports whether a type's name denotes raw key material
// (e.g. a named type RootKey).
func keyMaterialType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return keyMaterialName(n.Obj().Name())
}

// checkBoundary implements enclave-boundary. Inside internal/enclave and
// internal/sgx, no exported identifier — function name, signature
// parameter or result, package-level var, or exported struct field — may
// carry raw key material; that would place the rootkey on the ecall
// surface. Outside those packages, no reference to such an exported
// identifier is allowed (belt and suspenders: if one slips in, every use
// site lights up too).
func checkBoundary(m *Module, p *Package) []Finding {
	rel := relDir(m, p)
	if enclaveBoundaryDirs[rel] {
		return checkBoundaryInside(p)
	}
	return checkBoundaryOutside(m, p)
}

func checkBoundaryInside(p *Package) []Finding {
	var out []Finding
	flag := func(n ast.Node, what, name string) {
		out = append(out, Finding{
			Pos:  p.Fset.Position(n.Pos()),
			Rule: RuleBoundary,
			Msg:  what + " " + name + " carries raw key material across the enclave boundary; only sealed/wrapped forms may be exported",
		})
	}
	fieldCarriesKey := func(f *ast.Field) (string, bool) {
		for _, name := range f.Names {
			if keyMaterialName(name.Name) {
				return name.Name, true
			}
		}
		if tv, ok := p.Info.Types[f.Type]; ok && keyMaterialType(tv.Type) {
			return exprText(p, f.Type), true
		}
		return "", false
	}

	for _, file := range p.Syntax {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if keyMaterialName(d.Name.Name) {
					flag(d.Name, "exported function", d.Name.Name)
				}
				if d.Type.Params != nil {
					for _, f := range d.Type.Params.List {
						if name, bad := fieldCarriesKey(f); bad {
							flag(f, "parameter of exported function "+d.Name.Name+":", name)
						}
					}
				}
				if d.Type.Results != nil {
					for _, f := range d.Type.Results.List {
						if name, bad := fieldCarriesKey(f); bad {
							flag(f, "result of exported function "+d.Name.Name+":", name)
						}
					}
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, name := range s.Names {
							if name.IsExported() && keyMaterialName(name.Name) {
								flag(name, "exported variable", name.Name)
							}
						}
					case *ast.TypeSpec:
						st, ok := s.Type.(*ast.StructType)
						if !ok || !s.Name.IsExported() {
							continue
						}
						for _, f := range st.Fields.List {
							for _, name := range f.Names {
								if name.IsExported() && keyMaterialName(name.Name) {
									flag(name, "exported field "+s.Name.Name+".", name.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

func checkBoundaryOutside(m *Module, p *Package) []Finding {
	var out []Finding
	seen := make(map[*ast.Ident]bool)
	for id, obj := range p.Info.Uses {
		if seen[id] || obj == nil || obj.Pkg() == nil {
			continue
		}
		seen[id] = true
		objRel := strings.TrimPrefix(obj.Pkg().Path(), m.Path+"/")
		if !enclaveBoundaryDirs[objRel] {
			continue
		}
		if obj.Exported() && keyMaterialName(obj.Name()) {
			out = append(out, Finding{
				Pos:  p.Fset.Position(id.Pos()),
				Rule: RuleBoundary,
				Msg:  "reference to " + obj.Pkg().Name() + "." + obj.Name() + " pulls raw key material out of the enclave packages",
			})
		}
	}
	return out
}

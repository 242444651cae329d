package lint

// digestflow: the library's one-hash discipline says a key is hashed
// exactly once, and everything downstream — shard routing, candidate
// buckets at every geometry, snapshot re-placement — derives from the
// stored digest. Functions annotated //repro:digestcarried are those
// downstream paths (putRouted and friends, resize migration, snapshot
// load): they receive or load a digest and must never evaluate a keyed
// hash again. Re-hashing there is not just wasted work — a different
// hasher or seed at load time would silently re-place keys with skewed
// candidates, breaking the geometry-free snapshot contract (the paper's
// "double hashing behaves fully random at any table shape" equivalence
// is about re-deriving from the SAME digest).
//
// A digest source is:
//
//   - any function of repro/internal/hashes whose name starts with
//     SipHash24;
//   - repro/internal/keyed.DigestBatch and the built-in keyed hashers
//     (Uint64, Int, String, Bytes);
//   - a call of any value whose type is keyed.Hasher (hashing through a
//     stored hasher field);
//   - any same-package function or func-typed field annotated
//     //repro:digestsource.
//
// The check walks the intra-package call graph: a digest source reached
// from a //repro:digestcarried root through same-package calls is
// reported at the offending call site. Cross-package calls are not
// walked (annotate the callee in its own package); a deliberate
// re-hash — e.g. a load-time wrong-hasher verification — is suppressed
// for one line with //repro:rehash-ok <reason>.

import (
	"go/ast"
	"go/types"
	"strings"
)

// DigestFlow is the digestflow analyzer.
var DigestFlow = &Analyzer{
	Name: "digestflow",
	Doc:  "//repro:digestcarried paths re-place from stored digests, never re-hash",
	Run:  runDigestFlow,
}

const (
	hashesPkgPath = "repro/internal/hashes"
	keyedPkgPath  = "repro/internal/keyed"
)

func runDigestFlow(p *Pass) error {
	dirs := p.Directives()
	decls := funcDecls(p)

	// Func-typed fields annotated //repro:digestsource (e.g. a stored
	// Hasher), so calls through them count as hash evaluations.
	srcFields := make(map[*types.Var]bool)
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok || st.Fields == nil {
					continue
				}
				for _, field := range st.Fields.List {
					if !dirs.FieldHas(field, DirDigestSrc) {
						continue
					}
					for _, name := range field.Names {
						if v, ok := p.TypesInfo.Defs[name].(*types.Var); ok {
							srcFields[v] = true
							srcFields[v.Origin()] = true
						}
					}
				}
			}
		}
	}

	// sourceCall reports whether this call evaluates a keyed hash, with
	// a display name for the message.
	sourceCall := func(call *ast.CallExpr) (string, bool) {
		if fn := calleeFunc(p.TypesInfo, call); fn != nil {
			if pkg := fn.Pkg(); pkg != nil {
				name := fn.Name()
				switch {
				case pkg.Path() == hashesPkgPath && strings.HasPrefix(name, "SipHash24"):
					return "hashes." + name, true
				case pkg.Path() == keyedPkgPath && (name == "DigestBatch" || name == "Uint64" || name == "Int" || name == "String" || name == "Bytes"):
					return "keyed." + name, true
				}
				if pkg == p.Pkg {
					if decl, ok := decls[fn.Origin()]; ok && dirs.FuncHas(decl, DirDigestSrc) {
						return name, true
					}
				}
			}
		}
		// A call through a stored keyed.Hasher (or an annotated
		// func-typed field) is a hash evaluation too.
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
			if v, ok := p.TypesInfo.Uses[sel.Sel].(*types.Var); ok && (srcFields[v] || srcFields[v.Origin()]) {
				return v.Name(), true
			}
		}
		if t := p.TypesInfo.TypeOf(call.Fun); t != nil {
			if named, ok := t.(interface {
				Obj() *types.TypeName
			}); ok {
				obj := named.Obj()
				if obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == keyedPkgPath && obj.Name() == "Hasher" {
					return "keyed.Hasher", true
				}
			}
		}
		return "", false
	}

	// Intra-package call graph over declared functions.
	callees := make(map[*ast.FuncDecl][]*ast.FuncDecl)
	type srcSite struct {
		call *ast.CallExpr
		name string
	}
	sources := make(map[*ast.FuncDecl][]srcSite)
	for fn, fd := range decls {
		_ = fn
		if fd.Body == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, ok := sourceCall(call); ok {
				if !dirs.SuppressedAt(p.Fset, call.Pos(), DirRehashOK) {
					sources[fd] = append(sources[fd], srcSite{call, name})
				}
				return true
			}
			if callee := calleeFunc(p.TypesInfo, call); callee != nil && callee.Pkg() == p.Pkg {
				if cd, ok := decls[callee.Origin()]; ok {
					callees[fd] = append(callees[fd], cd)
				}
			}
			return true
		})
	}

	// From each digestcarried root, walk reachable same-package
	// functions; any hash evaluation found breaks the contract. Each
	// offending site is reported once, naming one root that reaches it.
	reported := make(map[*ast.CallExpr]bool)
	for _, root := range sortedDecls(decls) {
		if !dirs.FuncHas(root, DirDigestCarry) {
			continue
		}
		seen := map[*ast.FuncDecl]bool{root: true}
		stack := []*ast.FuncDecl{root}
		for len(stack) > 0 {
			fd := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, site := range sources[fd] {
				if reported[site.call] {
					continue
				}
				reported[site.call] = true
				if fd == root {
					p.Reportf(site.call.Pos(), "//repro:digestcarried %s re-evaluates a keyed hash (%s): re-derive placement from the stored digest instead", root.Name.Name, site.name)
				} else {
					p.Reportf(site.call.Pos(), "keyed hash evaluation (%s) in %s is reachable from //repro:digestcarried %s: digest-carried paths must re-place from stored digests, never re-hash", site.name, fd.Name.Name, root.Name.Name)
				}
			}
			for _, cd := range callees[fd] {
				if !seen[cd] {
					seen[cd] = true
					stack = append(stack, cd)
				}
			}
		}
	}
	return nil
}

// sortedDecls returns the package's function declarations in source
// order, for deterministic reporting.
func sortedDecls(decls map[*types.Func]*ast.FuncDecl) []*ast.FuncDecl {
	out := make([]*ast.FuncDecl, 0, len(decls))
	seen := make(map[*ast.FuncDecl]bool)
	for _, fd := range decls {
		if !seen[fd] {
			seen[fd] = true
			out = append(out, fd)
		}
	}
	sortFuncDecls(out)
	return out
}

func sortFuncDecls(fds []*ast.FuncDecl) {
	for i := 1; i < len(fds); i++ {
		for j := i; j > 0 && fds[j].Pos() < fds[j-1].Pos(); j-- {
			fds[j], fds[j-1] = fds[j-1], fds[j]
		}
	}
}

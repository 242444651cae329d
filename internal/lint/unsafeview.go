package lint

// unsafeview: the library's unsafe.Pointer uses are all byte views — a
// hasher viewing a struct's bytes in place, a codec copying through
// them, the seqlock protocol's word-granular stores. Each is sound only
// behind a type-level gate that proved the viewed type pointer-free
// (and, for the seq protocol, word-tiling): BytesOf's byteIdentity,
// ViewCodec's noIndirection, NewCore's layoutOf. This analyzer pins
// that shape mechanically:
//
//   - every use of unsafe.Pointer / Add / Slice / String / SliceData /
//     StringData must sit in a file annotated //repro:unsafeview
//     <reason> — the audited allowlist; unsafe.Sizeof, Alignof and
//     Offsetof are compile-time constants and stay unrestricted;
//   - within an allowlisted file, each function using unsafe must be
//     dominated by a gate: either it calls a //repro:unsafegate
//     function before its first unsafe use, or it carries
//     //repro:gated <reason> declaring where the gate ran (a
//     construction-time check such as NewCore's, or a reflect.Kind
//     switch arm that proved the layout).

import (
	"go/ast"
	"go/token"
	"go/types"
)

// UnsafeView is the unsafeview analyzer.
var UnsafeView = &Analyzer{
	Name: "unsafeview",
	Doc:  "unsafe byte views only in allowlisted files, behind pointer-free gates",
	Run:  runUnsafeView,
}

// unsafeViewFuncs are the unsafe package members that create or
// manipulate views of memory (the dangerous ones).
var unsafeViewFuncs = map[string]bool{
	"Pointer": true, "Add": true, "Slice": true, "String": true,
	"SliceData": true, "StringData": true,
}

func runUnsafeView(p *Pass) error {
	dirs := p.Directives()
	decls := funcDecls(p)
	for _, file := range p.Files {
		uses := unsafeUses(p, file)
		if len(uses) == 0 {
			continue
		}
		dir, allowed := dirs.File(file, DirUnsafeView)
		if !allowed {
			for _, u := range uses {
				p.Reportf(u.Pos(), "unsafe.%s in a file not annotated //repro:unsafeview: move the view into an audited file or annotate this one with a reason", u.Sel.Name)
			}
			continue
		}
		if dir.Args == "" {
			p.Reportf(dir.Pos, "//repro:unsafeview needs a reason: say what is viewed and which gate makes it sound")
		}
		// Group the uses by enclosing function and demand a dominating
		// gate per function.
		perFunc := make(map[*ast.FuncDecl][]*ast.SelectorExpr)
		for _, u := range uses {
			fd := enclosingFunc(p, u)
			if fd == nil {
				p.Reportf(u.Pos(), "unsafe.%s outside any function body", u.Sel.Name)
				continue
			}
			perFunc[fd] = append(perFunc[fd], u)
		}
		for fd, fdUses := range perFunc {
			if gdir, ok := dirs.Func(fd, DirGated); ok {
				if gdir.Args == "" {
					p.Reportf(gdir.Pos, "//repro:gated needs a reason: name the construction-time gate that makes %s's unsafe views sound", fd.Name.Name)
				}
				continue
			}
			first := fdUses[0].Pos()
			for _, u := range fdUses[1:] {
				if u.Pos() < first {
					first = u.Pos()
				}
			}
			if !gateCallBefore(p, fd, first, decls) {
				p.Reportf(first, "unsafe view in %s is not dominated by a pointer-free gate: call a //repro:unsafegate check first, or annotate the function //repro:gated <where the gate ran>", fd.Name.Name)
			}
		}
	}
	return nil
}

// unsafeUses returns the file's references to view-creating unsafe
// members.
func unsafeUses(p *Pass, file *ast.File) []*ast.SelectorExpr {
	var uses []*ast.SelectorExpr
	ast.Inspect(file, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || !unsafeViewFuncs[sel.Sel.Name] {
			return true
		}
		id, ok := unparen(sel.X).(*ast.Ident)
		if !ok {
			return true
		}
		if pkg, ok := p.TypesInfo.Uses[id].(*types.PkgName); ok && pkg.Imported().Path() == "unsafe" {
			uses = append(uses, sel)
		}
		return true
	})
	return uses
}

// gateCallBefore reports whether fd's body calls a //repro:unsafegate
// function at a position before pos.
func gateCallBefore(p *Pass, fd *ast.FuncDecl, pos token.Pos, decls map[*types.Func]*ast.FuncDecl) bool {
	dirs := p.Directives()
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found || (n != nil && n.Pos() >= pos) {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(p.TypesInfo, call)
		if fn == nil || fn.Pkg() != p.Pkg {
			return true
		}
		if decl, ok := decls[fn.Origin()]; ok && dirs.FuncHas(decl, DirUnsafeGate) {
			found = true
		}
		return !found
	})
	return found
}

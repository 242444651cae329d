package lint

// //repro:* directive parsing. A directive is a comment line of the form
//
//	//repro:NAME optional free-text arguments
//
// (no space after //, like //go: directives, so gofmt preserves it and
// godoc hides it). Where a directive may appear decides what it
// annotates:
//
//   - in a file's package doc, or above the package clause: the file
//     (e.g. //repro:unsafeview, file-wide //repro:seqguarded);
//   - in a function's doc comment: that function;
//   - in a struct type's doc comment: every field of the struct;
//   - in a field's doc or trailing comment: that field;
//   - anywhere else, for the suppression directives //repro:allocok and
//     //repro:rehash-ok: the comment's own source line and the next one
//     (so a suppression can trail the construct it excuses or sit on
//     its own line above it).
//
// ANNOTATIONS.md documents each directive's contract.

import (
	"go/ast"
	"go/token"
	"strings"
)

// Directive names understood by the suite.
const (
	DirSeqGuarded  = "seqguarded"    // field/struct/file: access only via sync/atomic
	DirSeqAccessor = "seqaccessor"   // func: blessed atomic accessor for seqguarded words
	DirSeqExempt   = "seqexempt"     // func: pre-publication construction, plain access OK
	DirNoAlloc     = "noalloc"       // func: no allocating constructs
	DirAllocOK     = "allocok"       // line: suppress one noalloc finding (reason required)
	DirUnsafeView  = "unsafeview"    // file: unsafe byte views allowed here (reason required)
	DirUnsafeGate  = "unsafegate"    // func: a pointer-free/size gate for unsafe views
	DirGated       = "gated"         // func: gate runs at construction (reason required)
	DirDigestCarry = "digestcarried" // func: re-places from stored digests, never re-hashes
	DirDigestSrc   = "digestsource"  // func/field: evaluates a keyed hash
	DirRehashOK    = "rehash-ok"     // line: suppress one digestflow finding (reason required)
	DirRequiresLck = "requires-lock" // func: callable only with a classed lock held
	DirDurable     = "durable"       // func / interface method: calls of this are durability ops
	DirPoisons     = "poisons"       // func: durable-op errors are poisoned into these targets
	DirBoundedIn   = "boundedinput"  // func: decoded sizes allocate only under a dominating bound
	DirLockClass   = "lockclass"     // mutex field (or accessor func): lock class name + rank
)

// Directive is one parsed //repro:NAME annotation.
type Directive struct {
	Name string
	Args string
	Pos  token.Pos
}

// Directives indexes a package's //repro:* annotations by what they
// annotate.
type Directives struct {
	files  map[*ast.File][]Directive
	funcs  map[*ast.FuncDecl][]Directive
	types  map[*ast.TypeSpec][]Directive
	fields map[*ast.Field][]Directive
	// lines[filename][line] holds suppression directives whose comment
	// covers that source line.
	lines map[string]map[int][]Directive
}

// ParseDirectives scans the package's comments once.
func ParseDirectives(fset *token.FileSet, files []*ast.File) *Directives {
	d := &Directives{
		files:  make(map[*ast.File][]Directive),
		funcs:  make(map[*ast.FuncDecl][]Directive),
		types:  make(map[*ast.TypeSpec][]Directive),
		fields: make(map[*ast.Field][]Directive),
		lines:  make(map[string]map[int][]Directive),
	}
	for _, f := range files {
		d.files[f] = append(d.files[f], groupDirectives(f.Doc)...)
		for _, g := range f.Comments {
			// Comments above the package clause are file-level too.
			if g != f.Doc && g.End() < f.Package {
				d.files[f] = append(d.files[f], groupDirectives(g)...)
			}
			d.recordLines(fset, g)
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				d.funcs[decl] = groupDirectives(decl.Doc)
			case *ast.GenDecl:
				declDirs := groupDirectives(decl.Doc)
				for _, spec := range decl.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					d.types[ts] = append(groupDirectives(ts.Doc), declDirs...)
					// Struct fields and interface methods both annotate
					// per-field: //repro:seqguarded words, //repro:lockclass
					// mutexes, //repro:durable walFile operations.
					var fields *ast.FieldList
					switch t := ts.Type.(type) {
					case *ast.StructType:
						fields = t.Fields
					case *ast.InterfaceType:
						fields = t.Methods
					}
					if fields == nil {
						continue
					}
					for _, field := range fields.List {
						fd := append(groupDirectives(field.Doc), groupDirectives(field.Comment)...)
						if len(fd) > 0 {
							d.fields[field] = fd
						}
					}
				}
			}
		}
	}
	return d
}

// recordLines indexes suppression directives by the source line they
// cover: the comment's own line (a trailing suppression) plus the
// following line (a suppression placed on its own line above the
// construct it excuses).
func (d *Directives) recordLines(fset *token.FileSet, g *ast.CommentGroup) {
	for _, c := range g.List {
		dir, ok := parseDirective(c.Text)
		if !ok {
			continue
		}
		dir.Pos = c.Pos()
		pos := fset.Position(c.Pos())
		m := d.lines[pos.Filename]
		if m == nil {
			m = make(map[int][]Directive)
			d.lines[pos.Filename] = m
		}
		m[pos.Line] = append(m[pos.Line], dir)
		m[pos.Line+1] = append(m[pos.Line+1], dir)
	}
}

func groupDirectives(g *ast.CommentGroup) []Directive {
	if g == nil {
		return nil
	}
	var out []Directive
	for _, c := range g.List {
		if dir, ok := parseDirective(c.Text); ok {
			dir.Pos = c.Pos()
			out = append(out, dir)
		}
	}
	return out
}

func parseDirective(text string) (Directive, bool) {
	rest, ok := strings.CutPrefix(text, "//repro:")
	if !ok {
		return Directive{}, false
	}
	name, args, _ := strings.Cut(rest, " ")
	name = strings.TrimSpace(name)
	if name == "" {
		return Directive{}, false
	}
	return Directive{Name: name, Args: strings.TrimSpace(args)}, true
}

func has(dirs []Directive, name string) bool {
	for _, d := range dirs {
		if d.Name == name {
			return true
		}
	}
	return false
}

func find(dirs []Directive, name string) (Directive, bool) {
	for _, d := range dirs {
		if d.Name == name {
			return d, true
		}
	}
	return Directive{}, false
}

// FileHas reports whether f carries a file-level directive name.
func (d *Directives) FileHas(f *ast.File, name string) bool { return has(d.files[f], name) }

// File returns f's file-level directive name, if present.
func (d *Directives) File(f *ast.File, name string) (Directive, bool) {
	return find(d.files[f], name)
}

// FuncHas reports whether fn's doc comment carries directive name.
func (d *Directives) FuncHas(fn *ast.FuncDecl, name string) bool { return has(d.funcs[fn], name) }

// Func returns fn's directive name, if present.
func (d *Directives) Func(fn *ast.FuncDecl, name string) (Directive, bool) {
	return find(d.funcs[fn], name)
}

// TypeHas reports whether the type declaration carries directive name.
func (d *Directives) TypeHas(ts *ast.TypeSpec, name string) bool { return has(d.types[ts], name) }

// FieldHas reports whether the struct field carries directive name.
func (d *Directives) FieldHas(f *ast.Field, name string) bool { return has(d.fields[f], name) }

// Field returns the struct field's directive name, if present.
func (d *Directives) Field(f *ast.Field, name string) (Directive, bool) {
	return find(d.fields[f], name)
}

// SuppressedAt reports whether a suppression directive name covers the
// source line of pos.
func (d *Directives) SuppressedAt(fset *token.FileSet, pos token.Pos, name string) bool {
	p := fset.Position(pos)
	for _, dir := range d.lines[p.Filename][p.Line] {
		if dir.Name == name {
			return true
		}
	}
	return false
}

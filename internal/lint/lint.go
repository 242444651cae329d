// Package lint is reprolint: a suite of static analyzers that enforce
// the library's hot-path invariants mechanically — the contracts that
// the seqlock read path, the zero-allocation pins, the unsafe byte
// views and the digest-carried re-placement paths otherwise state only
// in comments and runtime tests.
//
// Each invariant is declared in the source with a //repro:* directive
// (see ANNOTATIONS.md at the repository root) and checked by one
// analyzer:
//
//   - seqatomic: //repro:seqguarded fields may only be accessed through
//     sync/atomic (or a //repro:seqaccessor helper). The race detector
//     cannot see these bugs: a seqlock reader's torn plain load is
//     rejected by the generation check, so it never misbehaves under
//     -race — it is still undefined behaviour under the Go memory model.
//   - noalloc: //repro:noalloc functions contain no allocating
//     constructs (the static backstop behind the AllocsPerRun pins).
//   - unsafeview: unsafe.Pointer views appear only in files annotated
//     //repro:unsafeview, dominated by a pointer-free/size gate.
//   - digestflow: //repro:digestcarried functions never re-hash — they
//     re-derive placement from stored digests only.
//   - fsyncorder: in //repro:poisons functions, every error a
//     //repro:durable operation (fsync/rename/truncate) returns is
//     poisoned — a sticky-error store or cleanup action — before it can
//     reach a return, and success acks are dominated by a durable op.
//   - boundedinput: //repro:boundedinput decoders never size an
//     allocation from decoded input without a dominating bound check, so
//     a lying length prefix cannot force allocation.
//   - lockorder: //repro:lockclass ranks order every lock-acquisition
//     edge; rank inversions and cycles are reported before they can
//     deadlock. The same flow-sensitive held set checks that every call
//     of a //repro:requires-lock function holds a classed lock on every
//     path to it.
//
// The last three are path-sensitive: they run over per-function
// control-flow graphs (repro/internal/lint/cfg) with dominance and
// forward dataflow, built once per package and shared by every analyzer.
//
// The framework mirrors golang.org/x/tools/go/analysis (Analyzer, Pass,
// Reportf) but is built on the standard library alone: packages are
// loaded through `go list -export` and type-checked against compiler
// export data, so the suite needs no module downloads. cmd/reprolint
// runs it standalone or as a `go vet -vettool`.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/lint/cfg"
)

// Analyzer is one named invariant check, run over a type-checked
// package.
type Analyzer struct {
	Name string // short lowercase identifier, e.g. "seqatomic"
	Doc  string // one-line description of the invariant enforced
	Run  func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	dirs   *Directives
	sh     *shared
	report func(Diagnostic)
}

// shared is the per-package state every analyzer of that package reuses:
// the parent map, the object→declaration index, and each function's
// control-flow graph. With three CFG analyzers in the suite, building
// these once per package (instead of once per analyzer) is what keeps a
// repo-wide reprolint run flat as analyzers are added.
type shared struct {
	parents map[ast.Node]ast.Node
	decls   map[*types.Func]*ast.FuncDecl
	cfgs    map[*ast.FuncDecl]*cfg.Graph
}

// Diagnostic is one finding, positioned for file:line:col display.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Directives returns the package's parsed //repro:* directives (lazily
// built, shared by every analyzer running over the pass's package).
func (p *Pass) Directives() *Directives { return p.dirs }

// Parent returns the syntactic parent of n within the pass's files, or
// nil for a file root. The parent map is built once per package.
func (p *Pass) Parent(n ast.Node) ast.Node {
	if p.sh.parents == nil {
		p.sh.parents = make(map[ast.Node]ast.Node)
		for _, f := range p.Files {
			buildParents(p.sh.parents, f)
		}
	}
	return p.sh.parents[n]
}

// FuncDecls maps each package-level function or method object to its
// declaration — the bridge from a call site's *types.Func back to the
// AST and its directives. Built once per package.
func (p *Pass) FuncDecls() map[*types.Func]*ast.FuncDecl {
	if p.sh.decls == nil {
		m := make(map[*types.Func]*ast.FuncDecl)
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name == nil {
					continue
				}
				if fn, ok := p.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					m[fn] = fd
				}
			}
		}
		p.sh.decls = m
	}
	return p.sh.decls
}

// CFG returns fd's control-flow graph, built lazily and cached for
// every analyzer of the package. Returns nil for bodyless declarations.
func (p *Pass) CFG(fd *ast.FuncDecl) *cfg.Graph {
	if fd == nil || fd.Body == nil {
		return nil
	}
	if p.sh.cfgs == nil {
		p.sh.cfgs = make(map[*ast.FuncDecl]*cfg.Graph)
	}
	g, ok := p.sh.cfgs[fd]
	if !ok {
		g = cfg.FuncGraph(fd)
		p.sh.cfgs[fd] = g
	}
	return g
}

func buildParents(m map[ast.Node]ast.Node, root ast.Node) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			m[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
}

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Pkg     *types.Package
	Info    *types.Info
}

// Run executes every analyzer over every package and returns the
// findings sorted by position. An analyzer error aborts the run.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		dirs := ParseDirectives(pkg.Fset, pkg.Files)
		sh := &shared{} // parents/decls/CFGs built once, shared by all analyzers
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Pkg,
				TypesInfo: pkg.Info,
				dirs:      dirs,
				sh:        sh,
				report:    func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return diags, fmt.Errorf("%s: %s: %w", pkg.PkgPath, a.Name, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// Analyzers returns the full reprolint suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{SeqAtomic, NoAlloc, UnsafeView, DigestFlow, FsyncOrder, BoundedInput, LockOrder}
}

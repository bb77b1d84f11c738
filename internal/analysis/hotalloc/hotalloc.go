// Package hotalloc guards the zero-allocation hot path: no per-call
// heap allocation may appear in the pooled plan methods or the pooled
// executor's run loops.
//
// The perf PR that introduced plan pooling (get → reset → run → put,
// internal/core/pool.go) and the pooled runners
// (exec.Runner/SerialRunner/DoorbellRunner) got steady-state Get and
// Set to 0 allocs/op, and internal/core/allocs_test.go pins that
// number. But the alloc-ceiling test only covers the operations it
// drives; a regression on a path it doesn't reach — a closure captured
// in an eviction stage, a fresh slice literal in a reshard-window
// branch — survives until someone profiles again. This analyzer makes
// the discipline structural by flagging, inside the hot functions, the
// syntactic forms that heap-allocate per call:
//
//   - function literals (closures allocate their capture environment),
//   - make and new,
//   - &T{...} composite literals (escaping pointer → heap),
//   - slice and map composite literals.
//
// Plain value struct literals are NOT flagged: exec.Verb{...} appended
// into a plan's retained verbs slice is the idiom the plans are built
// from, and it allocates nothing.
//
// The hot functions are, syntactically:
//
//   - in ditto/internal/exec: methods on Runner, SerialRunner, and
//     DoorbellRunner (the pooled run loops); the package's free
//     functions are not run loops and stay unswept;
//   - in ditto/internal/core: methods on the plan types (receiver type
//     name ending in "Plan") — Step, Absorb, reset, and the stage
//     helpers they call through the receiver — on keyWalk, the lookup
//     stage the keyed plans embed, and on the batched driver (batch.go):
//     fan, which every MGet/MSet/MDelete pass runs through, and the
//     operations' pass halves (receiver type name ending in "Batch":
//     serial, stage, consume).
//
// Deliberate allocations — pool-growth on a free-list miss, a
// once-per-runner map init, a cold ablation branch — state why with
// //dittolint:allow hotalloc (reason); the annotation is the audit
// trail for every allocation the hot path is still allowed to make.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"ditto/internal/analysis"
)

// Analyzer is the hotalloc pass.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "no per-call heap allocation (closure, make/new, &T{} or " +
		"slice/map literal) in pooled plan methods or executor run " +
		"loops (zero-alloc hot-path contract, enforced at 0 allocs/op " +
		"by internal/core/allocs_test.go)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hotFunc(pass.Path, fd) {
				continue
			}
			check(pass, fd)
		}
	}
	return nil
}

// hotFunc reports whether fd is one of the swept hot functions.
func hotFunc(path string, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	name := recvTypeName(fd.Recv.List[0].Type)
	switch path {
	case "ditto/internal/exec":
		return name == "Runner" || name == "SerialRunner" || name == "DoorbellRunner"
	case "ditto/internal/core":
		return strings.HasSuffix(name, "Plan") || name == "keyWalk" ||
			name == "fan" || strings.HasSuffix(name, "Batch")
	case "ditto/internal/fairness":
		// The multi-tenant wrapper sits on every tenant-path op: its
		// Get/Set must stay alloc-free too (retained scratch, GetAppend).
		return name == "Client"
	}
	return false
}

// recvTypeName unwraps a method receiver's type expression to the bare
// type name.
func recvTypeName(expr ast.Expr) string {
	if star, ok := expr.(*ast.StarExpr); ok {
		expr = star.X
	}
	if id, ok := expr.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// check walks one hot function's body for per-call allocation forms.
func check(pass *analysis.Pass, fd *ast.FuncDecl) {
	// Composite literals already reported as part of an enclosing &X{}
	// are not reported again on their own.
	reported := make(map[*ast.CompositeLit]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(),
				"function literal in hot function %s allocates its closure per call; hoist the state onto the plan/runner, or annotate with //dittolint:allow hotalloc (reason)",
				fd.Name.Name)
		case *ast.UnaryExpr:
			if n.Op != token.AND {
				return true
			}
			if cl, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
				reported[cl] = true
				pass.Reportf(n.Pos(),
					"&%s literal in hot function %s heap-allocates per call; draw from the free list or reuse retained scratch, or annotate with //dittolint:allow hotalloc (reason)",
					litTypeName(pass.Info, cl), fd.Name.Name)
			}
		case *ast.CompositeLit:
			if reported[n] {
				return true
			}
			if tv, ok := pass.Info.Types[n]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice, *types.Map:
					pass.Reportf(n.Pos(),
						"%s literal in hot function %s allocates per call; append into a retained slice (verbs idiom) or reuse scratch, or annotate with //dittolint:allow hotalloc (reason)",
						litTypeName(pass.Info, n), fd.Name.Name)
				}
			}
		case *ast.CallExpr:
			for _, b := range [...]string{"make", "new"} {
				if analysis.IsBuiltin(pass.Info, n, b) {
					pass.Reportf(n.Pos(),
						"%s in hot function %s allocates per call; reuse retained scratch (grow/bufAt, free lists), or annotate with //dittolint:allow hotalloc (reason)",
						b, fd.Name.Name)
				}
			}
		}
		return true
	})
}

// litTypeName renders a composite literal's type for the diagnostic.
func litTypeName(info *types.Info, cl *ast.CompositeLit) string {
	if tv, ok := info.Types[cl]; ok {
		return types.TypeString(tv.Type, func(p *types.Package) string { return p.Name() })
	}
	return "composite"
}

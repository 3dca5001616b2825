package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Determinism enforces the bit-identical seed-determinism contract of
// the algorithm and simulator packages (established in PR 1, guarded
// dynamically by the determinism tests in internal/mpc, internal/randwalk
// and internal/core): the same seed must produce the same output
// regardless of worker count, scheduling, or when the run happens.
//
// Three ways that contract quietly breaks, each checked statically:
//
//  1. Wall-clock reads (time.Now, time.Since, time.Until) feed
//     nondeterministic values into the computation.
//  2. The global math/rand (and math/rand/v2) RNG is shared, unseeded
//     (or auto-seeded), and draw order depends on goroutine
//     interleaving. Randomness must flow in through a seeded *rand.Rand
//     (the executor's StreamRNG/StreamPCG per-index substreams).
//  3. Iterating a map while appending to an output slice (or sending on
//     a channel) leaks Go's randomized map iteration order into the
//     result unless the output is sorted afterwards.
//
// Test files are exempt: measuring wall-clock time or exercising
// randomness in a test does not affect production determinism.
var Determinism = &Analyzer{
	Name:  "determinism",
	Doc:   "forbid wall-clock reads, global math/rand, and map-iteration-order leaks in algorithm/simulator packages",
	Scope: func(pkg *Package) bool { return determinismScope[pkg.RelDir] },
	Run:   runDeterminism,
}

// determinismScope lists the packages whose output must be a pure
// function of (input, seed). Service/CLI/storage layers are excluded:
// timestamps, jitter, and wall-clock deadlines are legitimate there.
// internal/repl is in scope despite being a service layer: replication
// lag and catch-up decisions must be version arithmetic, never
// wall-clock reads, or the readiness gate stops being reproducible in
// the chaos sweep. (Timers and tickers only pace the loops; they are
// not reads and stay allowed.)
var determinismScope = map[string]bool{
	"internal/algo":       true,
	"internal/baseline":   true,
	"internal/ballsbins":  true,
	"internal/core":       true,
	"internal/dynamic":    true,
	"internal/expander":   true,
	"internal/gen":        true,
	"internal/leader":     true,
	"internal/lowerbound": true,
	"internal/mpc":        true,
	"internal/parallel":   true,
	"internal/randomize":  true,
	"internal/randwalk":   true,
	"internal/regularize": true,
	"internal/repl":       true,
	"internal/rgraph":     true,
	"internal/sketch":     true,
	"internal/spectral":   true,
	"internal/sublinear":  true,
	"internal/xproduct":   true,
}

// wallClockFuncs are the time package reads that break determinism.
// (time.Sleep only stalls; the types and constants are fine.)
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// globalRandFuncs are the package-level draws on the shared RNG, for
// both math/rand and math/rand/v2. Constructors (New, NewPCG,
// NewSource, NewChaCha8, NewZipf) are the blessed pattern and allowed.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "IntN": true, "Int31": true, "Int31n": true,
	"Int32": true, "Int32N": true, "Int63": true, "Int63n": true,
	"Int64": true, "Int64N": true, "Uint": true, "UintN": true,
	"Uint32": true, "Uint32N": true, "Uint64": true, "Uint64N": true,
	"Float32": true, "Float64": true, "NormFloat64": true, "ExpFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true, "N": true,
}

func runDeterminism(pass *Pass) error {
	for _, f := range pass.Pkg.Files {
		if len(f.Decls) > 0 && pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					checkDeterminismCall(pass, call)
				}
				if rs, ok := n.(*ast.RangeStmt); ok {
					checkMapRangeOrder(pass, fd, rs)
				}
				return true
			})
		}
	}
	return nil
}

func checkDeterminismCall(pass *Pass, call *ast.CallExpr) {
	pkgPath, fn, ok := pkgFuncCall(pass.Pkg.Info, call)
	if !ok {
		return
	}
	switch pkgPath {
	case "time":
		if wallClockFuncs[fn] {
			pass.Reportf(call.Pos(),
				"time.%s reads the wall clock inside a seed-deterministic package; thread timing through parameters or move the measurement to the caller", fn)
		}
	case "math/rand", "math/rand/v2":
		if globalRandFuncs[fn] {
			pass.Reportf(call.Pos(),
				"rand.%s draws from the shared global RNG, whose state and draw order are not seed-deterministic; use a seeded *rand.Rand (StreamRNG/StreamPCG substreams) passed in by the caller", fn)
		}
	}
}

// checkMapRangeOrder flags range-over-map bodies that append to a slice
// declared outside the loop (or send on a channel) when no later
// sort/slices call over that slice appears in the same function: the
// collected output then inherits Go's randomized map iteration order.
func checkMapRangeOrder(pass *Pass, fd *ast.FuncDecl, rs *ast.RangeStmt) {
	info := pass.Pkg.Info
	tv, ok := info.Types[rs.X]
	if !ok || tv.Type == nil {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	type appendSite struct {
		obj types.Object
		pos ast.Node
	}
	var appends []appendSite
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(n.Pos(),
				"sending on a channel while ranging over a map publishes values in map iteration order, which is randomized per run")
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" && isBuiltinUse(info, id) {
				if len(n.Args) > 0 {
					if base, ok := ast.Unparen(n.Args[0]).(*ast.Ident); ok {
						if obj := info.Uses[base]; obj != nil && !within(obj.Pos(), rs) {
							appends = append(appends, appendSite{obj: obj, pos: n})
						}
					}
				}
			}
		}
		return true
	})
	for _, site := range appends {
		if !sortedAfter(pass, fd, rs, site.obj) {
			pass.Reportf(site.pos.Pos(),
				"append to %s inside range over a map collects values in randomized map iteration order; sort %s after the loop (sort.Slice / slices.Sort*) or iterate over sorted keys",
				site.obj.Name(), site.obj.Name())
		}
	}
}

func within(pos token.Pos, rs *ast.RangeStmt) bool {
	return pos >= rs.Pos() && pos <= rs.End()
}

// isBuiltinUse reports whether id resolves to a predeclared builtin
// (shadowing a builtin with a local would make the ident an ordinary
// object).
func isBuiltinUse(info *types.Info, id *ast.Ident) bool {
	_, ok := info.Uses[id].(*types.Builtin)
	return ok
}

// sortedAfter reports whether, after the range statement, the function
// calls into sort/slices — directly, or through a same-package helper
// whose body performs a sort/slices call (the sortEdges pattern) — with
// obj among the call's argument expressions.
func sortedAfter(pass *Pass, fd *ast.FuncDecl, rs *ast.RangeStmt, obj types.Object) bool {
	info := pass.Pkg.Info
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rs.End() || found {
			return !found
		}
		if !isSortingCall(pass, call) {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && info.Uses[id] == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// isSortingCall reports whether call reaches the sort or slices package:
// either directly, or one level down through a same-package function
// whose body contains a direct sort/slices call.
func isSortingCall(pass *Pass, call *ast.CallExpr) bool {
	info := pass.Pkg.Info
	if pkgPath, _, ok := pkgFuncCall(info, call); ok {
		return pkgPath == "sort" || pkgPath == "slices"
	}
	fn := calleeOf(info, call)
	if fn == nil || fn.Pkg() != pass.Pkg.Types {
		return false
	}
	fd := declFor(info, indexFuncs(pass.Pkg.Files), fn)
	if fd == nil || fd.Body == nil {
		return false
	}
	sorts := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.CallExpr); ok {
			if pkgPath, _, ok := pkgFuncCall(info, inner); ok && (pkgPath == "sort" || pkgPath == "slices") {
				sorts = true
			}
		}
		return !sorts
	})
	return sorts
}

package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Durability enforces the write-ordering discipline the PR 4/6 storage
// engine recovery contract depends on, as an intra-function
// order-of-calls analysis over the fault.FS / fault.File interfaces:
//
//  1. Sync-before-rename: a function that writes file data and then
//     calls Rename (the operation that atomically publishes a file)
//     must Sync between the write and the rename. Renaming an
//     un-fsynced file is the classic crash bug — the name commits
//     before the bytes, and recovery digest-verification sees a torn
//     snapshot that was never supposed to be reachable.
//  2. Checked fsync: the error of a fault.File.Sync call must not be
//     discarded (ExprStmt, assignment to blank, or defer) — a failed
//     fsync means the data is NOT durable and the operation must fail.
//     SyncDir is exempt: directory fsync is documented best-effort on
//     platforms that cannot sync directories.
//
// The analysis is flow-insensitive within a function (source order
// stands in for execution order) and counts a call to a same-package
// helper whose body (transitively) writes or syncs as a write/sync at
// the call site, so splitting an operation across helpers neither hides
// a violation nor invents one. Handing a fault.File to any other call —
// a func value, a function of another package such as an encoder — is
// counted as a write: the analysis cannot see that code, and a file is
// passed to it to be written.
//
// The cross-package half of the durability contract — engine-visible
// state must not advance before the store append returns
// (durable-then-apply) — spans internal/service and internal/store and
// remains enforced by the crash-point sweep and restart-recovery tests.
var Durability = &Analyzer{
	Name:  "durability",
	Doc:   "writes published by rename must be fsync'd first, and fsync errors must be checked",
	Scope: func(pkg *Package) bool { return pkg.RelDir == "internal/store" },
	Run:   runDurability,
}

type durEventKind int

const (
	evWrite durEventKind = iota
	evSync
	evRename
)

func runDurability(pass *Pass) error {
	faultPkg := findImport(pass.Pkg.Types, "internal/fault")
	if faultPkg == nil {
		return nil // nothing in this package touches the seam
	}
	fsIface := ifaceOf(faultPkg, "FS")
	fileIface := ifaceOf(faultPkg, "File")
	if fsIface == nil || fileIface == nil {
		return nil
	}

	info := pass.Pkg.Info
	fi := indexFuncs(pass.Pkg.Files)

	// Fixpoint over the package call graph: which functions (transitively)
	// perform a data write / a sync through the seam?
	containsWrite := map[types.Object]bool{}
	containsSync := map[types.Object]bool{}
	for changed := true; changed; {
		changed = false
		for _, fd := range fi.decls {
			if fd.Body == nil {
				continue
			}
			obj := info.Defs[fd.Name]
			if obj == nil {
				continue
			}
			w, s := scanWriteSync(pass, fd.Body, fsIface, fileIface, containsWrite, containsSync)
			if w && !containsWrite[obj] {
				containsWrite[obj] = true
				changed = true
			}
			if s && !containsSync[obj] {
				containsSync[obj] = true
				changed = true
			}
		}
	}

	for _, fd := range fi.decls {
		if fd.Body == nil || pass.IsTestFile(fd.Pos()) {
			continue
		}
		checkDurabilityFunc(pass, fd, fsIface, fileIface, containsWrite, containsSync)
	}
	return nil
}

// findImport returns the directly imported package whose path ends in
// suffix, or nil.
func findImport(pkg *types.Package, suffix string) *types.Package {
	if pkg == nil {
		return nil
	}
	for _, imp := range pkg.Imports() {
		if strings.HasSuffix(imp.Path(), suffix) {
			return imp
		}
	}
	return nil
}

func ifaceOf(pkg *types.Package, name string) *types.Interface {
	obj := pkg.Scope().Lookup(name)
	if obj == nil {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}

// seamCall classifies call as a seam operation: method name + receiver
// implementing the corresponding fault interface.
func seamCall(info *types.Info, call *ast.CallExpr, fsIface, fileIface *types.Interface) (kind durEventKind, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return 0, false
	}
	s, isMethod := info.Selections[sel]
	if !isMethod {
		return 0, false
	}
	recv := s.Recv()
	switch sel.Sel.Name {
	case "Write", "WriteString":
		if implementsIface(recv, fileIface) {
			return evWrite, true
		}
	case "Sync":
		if implementsIface(recv, fileIface) {
			return evSync, true
		}
	case "SyncDir":
		if implementsIface(recv, fsIface) {
			return evSync, true
		}
	case "Rename":
		if implementsIface(recv, fsIface) {
			return evRename, true
		}
	case "WriteFile":
		// A seam-level WriteFile (should one ever be added) is a write.
		if implementsIface(recv, fsIface) {
			return evWrite, true
		}
	}
	return 0, false
}

func implementsIface(t types.Type, iface *types.Interface) bool {
	if t == nil || iface == nil {
		return false
	}
	if types.Implements(t, iface) {
		return true
	}
	if _, isPtr := t.Underlying().(*types.Pointer); !isPtr {
		return types.Implements(types.NewPointer(t), iface)
	}
	return false
}

// scanWriteSync reports whether body performs a seam write / sync,
// counting calls to package functions already known to.
func scanWriteSync(pass *Pass, body *ast.BlockStmt, fsIface, fileIface *types.Interface, cw, cs map[types.Object]bool) (write, sync bool) {
	info := pass.Pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if kind, ok := seamCall(info, call, fsIface, fileIface); ok {
			switch kind {
			case evWrite:
				write = true
			case evSync:
				sync = true
			}
			return true
		}
		if fn := calleeOf(info, call); fn != nil && fn.Pkg() == pass.Pkg.Types {
			if cw[fn] {
				write = true
			}
			if cs[fn] {
				sync = true
			}
		} else if handsFile(info, call, fileIface) {
			write = true
		}
		return true
	})
	return write, sync
}

// handsFile reports whether call passes a fault.File as an argument.
func handsFile(info *types.Info, call *ast.CallExpr, fileIface *types.Interface) bool {
	for _, arg := range call.Args {
		if implementsIface(info.TypeOf(arg), fileIface) {
			return true
		}
	}
	return false
}

func checkDurabilityFunc(pass *Pass, fd *ast.FuncDecl, fsIface, fileIface *types.Interface, cw, cs map[types.Object]bool) {
	info := pass.Pkg.Info

	// Map each direct File.Sync call to its enclosing statement so the
	// discarded-error check can see how the result is used.
	discarded := map[*ast.CallExpr]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.ExprStmt:
			if call, ok := stmt.X.(*ast.CallExpr); ok {
				discarded[call] = true
			}
		case *ast.DeferStmt:
			discarded[stmt.Call] = true
		case *ast.GoStmt:
			discarded[stmt.Call] = true
		case *ast.AssignStmt:
			if len(stmt.Rhs) == 1 {
				if call, ok := stmt.Rhs[0].(*ast.CallExpr); ok && len(stmt.Lhs) == 1 {
					if id, ok := stmt.Lhs[0].(*ast.Ident); ok && id.Name == "_" {
						discarded[call] = true
					}
				}
			}
		}
		return true
	})

	unsyncedWrite := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		kind, isSeam := seamCall(info, call, fsIface, fileIface)
		if !isSeam {
			if fn := calleeOf(info, call); fn != nil && fn.Pkg() == pass.Pkg.Types {
				// Helper semantics: a helper that writes leaves an
				// unsynced write unless it also syncs (helpers that do
				// both are checked internally and end durable).
				if cw[fn] && !cs[fn] {
					unsyncedWrite = true
				} else if cs[fn] {
					unsyncedWrite = false
				}
			} else if handsFile(info, call, fileIface) {
				unsyncedWrite = true
			}
			return true
		}
		switch kind {
		case evWrite:
			unsyncedWrite = true
		case evSync:
			unsyncedWrite = false
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Sync" && discarded[call] {
				pass.Reportf(call.Pos(),
					"Sync error discarded: a failed fsync means the data is not durable and the operation must fail, not proceed")
			}
		case evRename:
			if unsyncedWrite {
				pass.Reportf(call.Pos(),
					"Rename publishes a file written earlier in this function without an intervening Sync; fsync the data before committing its name, or the post-crash file can be torn")
			}
		}
		return true
	})
}

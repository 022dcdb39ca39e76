package lint

import (
	"go/ast"
	"go/types"
)

// AnalyzerG5Contract enforces the GRAPE-5 host-library contract
// (cf. the GRAPE-5 hardware paper, astro-ph/9909116) in two layers:
//
//  1. Register-level isolation: outside internal/g5, the raw data-path
//     entry points of the emulated hardware — System.Compute,
//     System.ChargeOnly, System.SetBoardExcluded — are off limits.
//     Hosts drive the hardware through the library surfaces — Driver,
//     the paper's host-library API, and Cluster, the guarded offload
//     path (GuardedEngine is its one-board building block) — which own
//     serialisation, error classification and fault recovery.
//
//  2. Call order: for a Driver or System created in the current
//     function, the library sequence must hold in source order —
//     g5_set_range before any j-particle upload or force request
//     (positions are stored in the range's fixed-point format on real
//     hardware), at least one SetXMJ before CalculateForceOnX, Compute
//     only after SetScale, and nothing after Close. The tracking is
//     optimistic: once the device escapes to another function the
//     analyzer stops judging (cross-function state is the dynamic
//     conformance suite's job).
var AnalyzerG5Contract = &Analyzer{
	Name: "g5contract",
	Doc:  "enforce the GRAPE library call contract and register-level isolation of internal/g5",
	Run:  runG5Contract,
}

func runG5Contract(pass *Pass) error {
	outside := pass.Pkg.Path() != g5Path
	for _, file := range pass.Files {
		if outside {
			checkRegisterAccess(pass, file)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkCallOrder(pass, fn.Body)
				}
				return false // checkCallOrder walks the body itself
			}
			return true
		})
	}
	return nil
}

// registerMethods are the raw data-path methods of g5.System that only
// internal/g5 may touch.
var registerMethods = map[string]bool{
	"Compute": true, "ChargeOnly": true, "SetBoardExcluded": true,
}

func checkRegisterAccess(pass *Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		f := calleeFunc(pass.Info, call)
		if f == nil || !registerMethods[f.Name()] {
			return true
		}
		if pkg, typ, ok := recvNamed(f); ok && pkg == g5Path && typ == "System" {
			pass.Reportf(call.Pos(), "register-level access to g5.System.%s outside internal/g5: drive the hardware through Driver or Cluster", f.Name())
		}
		return true
	})
}

// devState tracks one locally-created hardware object through a
// function body.
type devState struct {
	kind      string // "driver" or "system"
	seenScale bool   // SetRange / SetScale observed
	seenJ     bool   // SetXMJ observed
	closed    bool
	escaped   bool
}

// checkCallOrder runs the optimistic source-order contract check over
// one function body.
func checkCallOrder(pass *Pass, body *ast.BlockStmt) {
	tracked := map[types.Object]*devState{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			trackCreation(pass, tracked, n)
		case *ast.CallExpr:
			handleCall(pass, tracked, n)
		}
		return true
	})
}

// trackCreation starts tracking `d, err := g5.Open(...)` and
// `sys, err := g5.NewSystem(...)` results.
func trackCreation(pass *Pass, tracked map[types.Object]*devState, assign *ast.AssignStmt) {
	if len(assign.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	f := calleeFunc(pass.Info, call)
	if f == nil || funcPkgPath(f) != g5Path {
		return
	}
	var kind string
	switch f.Name() {
	case "Open":
		kind = "driver"
	case "NewSystem":
		kind = "system"
	default:
		return
	}
	if len(assign.Lhs) == 0 {
		return
	}
	id, ok := assign.Lhs[0].(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	if obj := pass.Info.ObjectOf(id); obj != nil {
		tracked[obj] = &devState{kind: kind}
	}
}

// handleCall advances the contract state machine for method calls on
// tracked objects, and marks objects escaping as plain arguments.
func handleCall(pass *Pass, tracked map[types.Object]*devState, call *ast.CallExpr) {
	// Escape: a tracked device passed as an argument leaves local
	// jurisdiction (NewGuardedEngine(sys, ...), helper functions, ...).
	for _, arg := range call.Args {
		expr := ast.Unparen(arg)
		if u, ok := expr.(*ast.UnaryExpr); ok {
			expr = ast.Unparen(u.X)
		}
		if id, ok := expr.(*ast.Ident); ok {
			if st := tracked[pass.Info.ObjectOf(id)]; st != nil {
				st.escaped = true
			}
		}
	}

	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	recv, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return
	}
	st := tracked[pass.Info.ObjectOf(recv)]
	if st == nil || st.escaped {
		return
	}
	name := sel.Sel.Name
	if st.closed && name != "Close" {
		pass.Reportf(call.Pos(), "g5 %s used after Close (g5_close releases the hardware)", st.kind)
		return
	}
	switch st.kind {
	case "driver":
		switch name {
		case "SetRange":
			st.seenScale = true
		case "SetXMJ":
			if !st.seenScale {
				pass.Reportf(call.Pos(), "SetXMJ before SetRange: real GRAPE-5 boards store j-particles in the fixed-point format g5_set_range defines")
			}
			st.seenJ = true
		case "CalculateForceOnX":
			if !st.seenScale {
				pass.Reportf(call.Pos(), "CalculateForceOnX before SetRange: the fixed-point coordinate window is undefined")
			}
			if !st.seenJ {
				pass.Reportf(call.Pos(), "CalculateForceOnX before any SetXMJ: no j-particles loaded into the particle memory")
			}
		case "Close":
			st.closed = true
		}
	case "system":
		switch name {
		case "SetScale":
			st.seenScale = true
		case "Compute":
			if !st.seenScale {
				pass.Reportf(call.Pos(), "Compute before SetScale: the pipeline's fixed-point position format is undefined")
			}
		}
	}
}

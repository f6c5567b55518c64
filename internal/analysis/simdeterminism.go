package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// SimDeterminism enforces the bit-identical-replay contract of the
// simulator and the native congestion-control implementations: given the
// same seed, a run must produce the same event sequence on every machine
// and every execution. Inside the deterministic packages (netsim, tcp,
// nativecc, experiments) it forbids:
//
//   - wall-clock reads (time.Now, time.Since, timers, sleeps) — simulated
//     time comes from the event loop, never the host
//   - package-level math/rand functions, which share a global, racy source;
//     randomness must flow from an explicitly seeded *rand.Rand
//   - goroutine spawns: event order must not depend on the Go scheduler
//   - ranging over a map when the body feeds an order-sensitive sink
//     (append, channel send, scheduling/emission calls) — map iteration
//     order is randomized per run
//
// Code that intentionally measures the real world (the wall-clock IPC
// experiments) carries a //lint:ownership line comment.
var SimDeterminism = &Analyzer{
	Name: "simdeterminism",
	Doc:  "forbid wall-clock, global rand, goroutines, and map-ordered event emission in deterministic packages",
	Run:  runSimDeterminism,
}

// deterministicPkgs are the final import-path segments this analyzer
// applies to. supervise is here because the supervisor and standby must be
// drivable entirely from a netsim.Clock — failover experiments replay
// bit-identically only if the HA layer never reads the host clock or spawns
// its own goroutines. lang is here because both fold VMs (the stack
// reference and the register backend) promise bit-identical replay: the
// compilers must never let host entropy — clocks, global rand, map
// iteration order — leak into instruction selection or pool layout.
var deterministicPkgs = []string{"netsim", "tcp", "nativecc", "experiments", "supervise", "lang"}

// wallClockFuncs are time-package functions that read or wait on the host
// clock.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// seededRandCtors are math/rand package functions that are allowed: they
// construct an explicitly seeded source instead of using the global one.
var seededRandCtors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// orderSinkPrefixes name calls that emit or schedule in order; feeding them
// from a map range makes the event sequence depend on map hash seeds.
var orderSinkPrefixes = []string{"Schedule", "Emit", "Enqueue", "Push", "Send", "Deliver", "Write"}

func runSimDeterminism(pass *Pass) error {
	scoped := false
	for _, seg := range deterministicPkgs {
		if pkgLastSegment(pass.Pkg.Path(), seg) {
			scoped = true
			break
		}
	}
	if !scoped {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "goroutine spawn in deterministic package %s: event order must not depend on the scheduler", pass.Pkg.Name())
			case *ast.CallExpr:
				checkDeterminismCall(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
	return nil
}

func checkDeterminismCall(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return // methods (e.g. on a seeded *rand.Rand or a sim clock) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClockFuncs[fn.Name()] {
			pass.Reportf(call.Pos(), "time.%s reads the wall clock in deterministic package %s: use the simulated clock", fn.Name(), pass.Pkg.Name())
		}
	case "math/rand", "math/rand/v2":
		if !seededRandCtors[fn.Name()] {
			pass.Reportf(call.Pos(), "global rand.%s in deterministic package %s: thread an explicitly seeded *rand.Rand", fn.Name(), pass.Pkg.Name())
		}
	}
}

// checkMapRange reports ranging over a map when the body contains an
// order-sensitive sink.
func checkMapRange(pass *Pass, r *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[r.X]
	if !ok || tv.Type == nil {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	sink := ""
	ast.Inspect(r.Body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			sink = "a channel send"
		case *ast.CallExpr:
			if fn := calleeFunc(pass.TypesInfo, n); fn != nil {
				for _, p := range orderSinkPrefixes {
					if strings.HasPrefix(fn.Name(), p) {
						sink = fn.Name() + " call"
						return false
					}
				}
			}
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin && b.Name() == "append" {
					sink = "an append"
				}
			}
		}
		return true
	})
	if sink != "" {
		pass.Reportf(r.Pos(), "map iteration order feeds %s in deterministic package %s: iterate a sorted key slice instead", sink, pass.Pkg.Name())
	}
}

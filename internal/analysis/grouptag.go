package analysis

import (
	"go/ast"
	"go/types"
)

// GroupTag enforces the group-tagging invariant behind
// TestServerDropsForeignGroupTraffic: every kind-tagged wire message a
// replica-side package constructs must carry the ordering group it was
// configured with. Since PR 2, receivers drop foreign-group traffic before
// decoding the body — a message tagged with the wrong group is silently
// lost, which presents as a liveness bug, not an error.
//
// In the replica packages (the backend runtime and client — which tag
// heartbeats, replies, reads and catch-up traffic — core, the baselines,
// rmcast, consensus: the code that builds protocol traffic), the analyzer
// requires:
//
//   - the proto.GroupID argument of every envelope constructor
//     (proto.Marshal, AppendHeader, EncodeHeader, Marshal*/Append* and
//     transport.NewBatcher/SendBatch) to be derived from configuration — a
//     variable, field or call — never a constant expression. A hard-coded
//     group compiles, passes single-group tests (group 0), and loses every
//     message the moment the keyspace shards;
//   - every keyed proto.RequestID composite literal to set Group
//     explicitly: request identities are group-qualified, and a zero group
//     silently routes the request's replies to shard 0's clients.
//
// Packages outside the replica set (tests, experiments, the facade wiring a
// fixed group into a config struct) are not checked: constructing a
// one-group system with literal 0 is legitimate there.
var GroupTag = NewGroupTag(DefaultGroupTagPackages()...)

// DefaultGroupTagPackages returns the replica-side packages whose outgoing
// traffic must be group-tagged from configuration.
func DefaultGroupTagPackages() []string {
	return []string{
		"repro/internal/backend",
		"repro/internal/core",
		"repro/internal/baseline",
		"repro/internal/baseline/ctab",
		"repro/internal/baseline/fixedseq",
		"repro/internal/rmcast",
		"repro/internal/consensus",
		"repro/internal/fd",
	}
}

// NewGroupTag builds a GroupTag analyzer checking the given package paths
// (used by the fixture tests to include testdata packages).
func NewGroupTag(pkgs ...string) *Analyzer {
	checked := map[string]bool{}
	for _, p := range pkgs {
		checked[p] = true
	}
	return &Analyzer{
		Name: "grouptag",
		Doc:  "check that replica packages tag outgoing messages with a configured GroupID",
		Run: func(pass *Pass) error {
			if !checked[pass.Pkg.Path()] {
				return nil
			}
			return runGroupTag(pass)
		},
	}
}

func runGroupTag(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.CallExpr:
				checkGroupArg(pass, node)
			case *ast.CompositeLit:
				checkRequestIDLit(pass, node)
			}
			return true
		})
	}
	return nil
}

// groupTakingFuncs are the envelope constructors: any parameter of type
// proto.GroupID in these signatures is the message's group tag.
var groupTakingFuncs = map[string][]string{
	protoPath: {
		"Marshal", "AppendHeader", "EncodeHeader",
		"MarshalRMcast", "AppendRMcast",
		"MarshalSeqOrder", "AppendSeqOrder",
		"MarshalPhaseII", "AppendPhaseII",
		"MarshalHeartbeat", "AppendHeartbeat",
		"MarshalBatch",
	},
	transportPath: {"NewBatcher", "SendBatch"},
}

// checkGroupArg flags constant GroupID arguments to envelope constructors.
func checkGroupArg(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	names, ok := groupTakingFuncs[fn.Pkg().Path()]
	if !ok {
		return
	}
	found := false
	for _, name := range names {
		if fn.Name() == name {
			found = true
			break
		}
	}
	if !found {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		pt := paramTypeAt(sig, i)
		if pt == nil || !isNamed(pt, protoPath, "GroupID") {
			continue
		}
		if tv, ok := pass.Info.Types[arg]; ok && tv.Value != nil {
			pass.Reportf(arg.Pos(), "%s.%s is called with a constant group tag: replica packages must tag outgoing messages with their configured GroupID (cfg.GroupID), or receivers in other groups will silently drop them", fn.Pkg().Name(), fn.Name())
		}
	}
}

// checkRequestIDLit flags keyed proto.RequestID literals that omit Group.
func checkRequestIDLit(pass *Pass, lit *ast.CompositeLit) {
	tv, ok := pass.Info.Types[lit]
	if !ok || !isNamed(tv.Type, protoPath, "RequestID") {
		return
	}
	if len(lit.Elts) == 0 {
		return // zero value: comparisons, map probes — not a constructed identity
	}
	keyed := false
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			return // positional literal: all fields present by construction
		}
		keyed = true
		if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "Group" {
			return
		}
	}
	if keyed {
		pass.Reportf(lit.Pos(), "proto.RequestID literal without a Group field: request identities are group-qualified (proto.RequestID doc), and a zero group mis-routes the request and its replies once the keyspace shards")
	}
}

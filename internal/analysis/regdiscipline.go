package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The registry-discipline checks. The side-channel and defense planes
// each keep a registry that is only trustworthy if it is the one source
// of its values: every implementation registers itself from its
// package's init function, and every consumer resolves implementations
// at run time through the registry's Get. Two shapes break that:
//
//  1. Register calls inside ordinary functions register lazily, so the
//     advertised set (and the duplicate-name panic) depends on execution
//     path instead of the import graph;
//  2. constructing an implementation outside an init function bypasses
//     the registry entirely — callers would hold values the facade, the
//     HTTP layer (/healthz) and the arms tournament cannot see.
//
// Each registry package is exempt from its own check: its tests exercise
// the registry with throwaway implementations, and the defense chain
// combinator derives composite policies at resolve time by design.

// ChannelReg enforces the registration discipline of the side-channel
// plane (internal/channel, interface Channel).
var ChannelReg = registryDiscipline(registrySpec{
	name:   "channelreg",
	doc:    "side channels must be registered via channel.Register from init and constructed only there; consumers resolve them through channel.Get",
	pkg:    "channel",
	iface:  "Channel",
	plural: "channels",
})

// DefenseReg enforces the registration discipline of the defense plane
// (internal/defense, interface Policy), the mirror of ChannelReg.
var DefenseReg = registryDiscipline(registrySpec{
	name:   "defensereg",
	doc:    "defenses must be registered via defense.Register from init and constructed only there; consumers resolve them through defense.Get",
	pkg:    "defense",
	iface:  "Policy",
	plural: "defenses",
})

// registrySpec parameterizes one registry-discipline check.
type registrySpec struct {
	name, doc string
	// pkg is the registry package's name; it lives at internal/<pkg> and
	// exports Register, Get and the implementation interface iface.
	pkg, iface string
	// plural names the registered values in findings ("channels").
	plural string
}

func registryDiscipline(spec registrySpec) *Analyzer {
	suffix := "internal/" + spec.pkg
	return &Analyzer{
		Name:     spec.name,
		Category: "hygiene",
		Doc:      spec.doc,
		Applies: func(pkgPath string) bool {
			return !strings.HasSuffix(pkgPath, suffix)
		},
		Run: func(p *Pass) { runRegistryDiscipline(p, spec, suffix) },
	}
}

// registryIface resolves the registry's implementation interface through
// the package's imports; nil when the package never imports the registry
// (nothing to check then — implementing the interface without importing
// it is impossible, its methods mention the registry's own types).
func registryIface(p *Pass, suffix, name string) *types.Interface {
	for _, imp := range p.Pkg.Types.Imports() {
		if !strings.HasSuffix(imp.Path(), suffix) {
			continue
		}
		obj := imp.Scope().Lookup(name)
		if obj == nil {
			continue
		}
		if iface, ok := obj.Type().Underlying().(*types.Interface); ok {
			return iface
		}
	}
	return nil
}

func runRegistryDiscipline(p *Pass, spec registrySpec, suffix string) {
	iface := registryIface(p, suffix, spec.iface)
	lazy := fmt.Sprintf("%s.Register outside an init function registers %s lazily: register from the implementing package's init",
		spec.pkg, spec.plural)
	bypass := fmt.Sprintf("constructing a %s.%s implementation outside init bypasses the registry: resolve %s with %s.Get",
		spec.pkg, spec.iface, spec.plural, spec.pkg)
	for _, file := range p.Pkg.Files {
		// Package initialization is the only place registration (and hence
		// construction) is legitimate: init function bodies and
		// package-level var initializers, which run at the same time.
		var initRanges []ast.Node
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.Name == "init" && d.Recv == nil && d.Body != nil {
					initRanges = append(initRanges, d.Body)
				}
			case *ast.GenDecl:
				if d.Tok == token.VAR {
					initRanges = append(initRanges, d)
				}
			}
		}
		// Function literals defer execution past initialization even when
		// declared inside an init range, so their bodies don't count.
		var litBodies []ast.Node
		ast.Inspect(file, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok && fl.Body != nil {
				litBodies = append(litBodies, fl.Body)
			}
			return true
		})
		inInit := func(n ast.Node) bool {
			for _, b := range litBodies {
				if b.Pos() <= n.Pos() && n.End() <= b.End() {
					return false
				}
			}
			for _, b := range initRanges {
				if b.Pos() <= n.Pos() && n.End() <= b.End() {
					return true
				}
			}
			return false
		}

		ast.Inspect(file, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.CallExpr:
				if fn := calledFunc(p, e); fn != nil && fn.Name() == "Register" &&
					fn.Pkg() != nil && strings.HasSuffix(fn.Pkg().Path(), suffix) && !inInit(e) {
					p.Reportf(e.Pos(), "%s", lazy)
				}
			case *ast.CompositeLit:
				if iface == nil || inInit(e) {
					return true
				}
				t := p.TypeOf(e)
				if t == nil {
					return true
				}
				if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
					p.Reportf(e.Pos(), "%s", bypass)
				}
			}
			return true
		})
	}
}

func init() {
	Register(ChannelReg)
	Register(DefenseReg)
}

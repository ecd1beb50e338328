package analysis

import (
	"fmt"
	"go/types"
	"reflect"
)

// Fact is a piece of information an analyzer derives about a package-level
// object (a function, method, type, or variable), exported during one
// package's pass and importable by passes over packages analyzed later. It
// mirrors golang.org/x/tools/go/analysis.Fact with one simplification:
// facts live in an in-memory FactStore shared by
// one driver run (no gob serialization), keyed by the object's package
// path and qualified name rather than by objectpath — sufficient for the
// package-level contracts medalint checks (e.g. lockheld's "may block"
// facts on exported functions), and honest about its limits: facts can be
// attached only to package-level objects and methods, never to locals.
type Fact interface {
	// AFact marks the type as a fact; it has no behavior.
	AFact()
}

// FactStore carries facts across the packages of one driver run. The
// driver analyzes packages in dependency order (imports first), so a pass
// importing a fact about a function of an imported package finds what the
// pass over that package exported. The store is not safe for concurrent use;
// the driver runs passes sequentially.
type FactStore struct {
	objects map[objectFactKey]Fact
}

type objectFactKey struct {
	obj string // canonical object key: "pkg/path.Recv.Name"
	typ reflect.Type
}

// NewFactStore returns an empty store for one driver run.
func NewFactStore() *FactStore {
	return &FactStore{objects: make(map[objectFactKey]Fact)}
}

// ObjectKey canonicalizes a package-level object (or method) to the key
// facts are stored under: "pkg/path.Name" for package-level objects,
// "pkg/path.Recv.Name" for methods (pointer receivers are normalized to
// their element type). It reports false for objects facts cannot attach to
// — locals, blanks, objects without a package.
func ObjectKey(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil || obj.Name() == "" || obj.Name() == "_" {
		return "", false
	}
	name := obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			rt := sig.Recv().Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			named, ok := rt.(*types.Named)
			if !ok {
				return "", false // method on an unnamed receiver
			}
			return obj.Pkg().Path() + "." + named.Obj().Name() + "." + name, true
		}
		// Package-level function.
		return obj.Pkg().Path() + "." + name, true
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return "", false // local
	}
	return obj.Pkg().Path() + "." + name, true
}

// factType validates the concrete type of a fact: it must be a non-nil
// pointer so Import can copy into the caller's variable.
func factType(fact Fact) reflect.Type {
	t := reflect.TypeOf(fact)
	if t == nil || t.Kind() != reflect.Ptr {
		panic(fmt.Sprintf("analysis: fact %T must be a pointer", fact))
	}
	return t
}

// copyFact copies src's pointee into dst (both *T for the same T).
func copyFact(dst, src Fact) {
	reflect.ValueOf(dst).Elem().Set(reflect.ValueOf(src).Elem())
}

// ExportObjectFact records a fact about obj, replacing any existing fact
// of the same type. No-op (returning false) when the object cannot carry
// facts or the pass has no store.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) bool {
	if p.Facts == nil {
		return false
	}
	key, ok := ObjectKey(obj)
	if !ok {
		return false
	}
	p.Facts.objects[objectFactKey{key, factType(fact)}] = fact
	return true
}

// ImportObjectFact copies into fact the fact of fact's type previously
// exported about obj, reporting whether one was found. Safe on a pass
// without a store (reports false).
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if p.Facts == nil {
		return false
	}
	key, ok := ObjectKey(obj)
	if !ok {
		return false
	}
	src, ok := p.Facts.objects[objectFactKey{key, factType(fact)}]
	if !ok {
		return false
	}
	copyFact(fact, src)
	return true
}

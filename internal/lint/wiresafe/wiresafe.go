// Package wiresafe implements the resimvet analyzer that keeps the
// sweepd/jobd wire and journal types serializable by construction.
//
// Everything that crosses the sweep fabric or lands in the job journal
// travels as JSON, so a func, channel or interface field on a wire type
// would fail only when a value is first encoded; this analyzer fails the
// build instead. It discovers the wire
// surface from the code itself — every type that flows into an
// encoding/json call in the package, including through thin helpers that
// take an `any` parameter, plus every in-package struct reachable from
// those roots through serialized fields — and requires of each wire
// struct:
//
//   - exported fields carry an explicit json tag (wire names must not
//     silently track Go identifier renames);
//   - no serialized field contains a func, channel, unsafe.Pointer or
//     interface value (non-serializable, or serializable only by dynamic
//     accident), at any depth, unless the carrying type implements
//     json.Marshaler or encoding.TextMarshaler and so owns its encoding;
//   - map keys are strings, integers or text marshalers (anything else
//     fails at encode time);
//   - unexported fields do not carry json tags (encoding/json ignores
//     them; the tag is a lie).
//
// The escape hatches are `json:"-"` on the field — the same spelling the
// encoder honors — or a //resim:wire-ok <reason> annotation for fields
// whose serializability the analyzer cannot see.
package wiresafe

import (
	"fmt"
	"go/ast"
	"go/types"
	"reflect"

	"repro/internal/lint/analysis"
	"repro/internal/lint/lintutil"
)

// Analyzer checks that JSON-bound structs in wire packages contain only
// serializable, explicitly tagged fields.
var Analyzer = &analysis.Analyzer{
	Name: "wiresafe",
	Doc: "wire/journal structs must be fully serializable: json tags on exported fields, no func/chan/interface values\n" +
		"\nCatches an unencodable wire field at compile time rather than at\nthe first encode; see docs/STATIC_ANALYSIS.md#wiresafe.",
	Run: run,
}

// Directive is the analyzer's escape-hatch annotation name.
const Directive = "wire-ok"

// wirePackages are the packages whose JSON surface is a cross-process
// contract (the sweep fabric protocol and the job journal/API).
var wirePackages = map[string]bool{
	"repro/internal/sweepd": true,
	"repro/internal/jobd":   true,
}

func run(pass *analysis.Pass) (any, error) {
	if !wirePackages[pass.Pkg.Path()] {
		return nil, nil
	}
	dirs := lintutil.ParseDirectives(pass.Fset, pass.Files)

	roots := jsonRoots(pass)
	wire := map[*types.Named]bool{}
	for _, t := range roots {
		addReachable(pass.Pkg, t, wire)
	}

	for _, file := range pass.Files {
		if lintutil.IsTestFile(pass.Fset, file.Package) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			obj, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
			if !ok {
				return true
			}
			named, ok := obj.Type().(*types.Named)
			if !ok || !wire[named] {
				return true
			}
			if st, ok := ts.Type.(*ast.StructType); ok {
				checkStruct(pass, dirs, named, st)
			}
			return true
		})
	}
	return nil, nil
}

// jsonRoots finds every type the package hands to encoding/json. Helpers
// with interface-typed parameters that forward to a JSON call (writeJSON,
// client request wrappers) are resolved to their call sites, iterating to
// a fixpoint so chains of helpers still seed their concrete argument
// types.
func jsonRoots(pass *analysis.Pass) []types.Type {
	// sinkParams[fn] marks the parameter indices of fn that reach a JSON
	// encoder when fn is called.
	sinkParams := map[*types.Func]map[int]bool{}
	var roots []types.Type

	seed := func(arg ast.Expr, enclosing *types.Func) {
		if u, ok := arg.(*ast.UnaryExpr); ok && u.Op.String() == "&" {
			arg = u.X
		}
		// An identifier naming an interface-typed parameter of the
		// enclosing function makes that parameter a sink; a concrete
		// expression is a root type.
		if id, ok := arg.(*ast.Ident); ok && enclosing != nil {
			if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok {
				sig := enclosing.Type().(*types.Signature)
				for i := 0; i < sig.Params().Len(); i++ {
					if sig.Params().At(i) == v {
						if types.IsInterface(v.Type()) {
							if sinkParams[enclosing] == nil {
								sinkParams[enclosing] = map[int]bool{}
							}
							sinkParams[enclosing][i] = true
							return
						}
					}
				}
			}
		}
		if tv, ok := pass.TypesInfo.Types[arg]; ok && tv.Type != nil {
			roots = append(roots, tv.Type)
		}
	}

	// visit walks every function body once per fixpoint round, seeding
	// from direct encoding/json calls and from calls to known sinks.
	visit := func() bool {
		before := len(roots)
		grewSinks := false
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				enclosing, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					nSinks := len(sinkParams[enclosing])
					for _, idx := range sinkArgs(pass, call) {
						if idx < len(call.Args) {
							seed(call.Args[idx], enclosing)
						}
					}
					if fn := calleeFunc(pass, call); fn != nil {
						for idx := range sinkParams[fn] {
							if idx < len(call.Args) {
								seed(call.Args[idx], enclosing)
							}
						}
					}
					if len(sinkParams[enclosing]) != nSinks {
						grewSinks = true
					}
					return true
				})
			}
		}
		return len(roots) != before || grewSinks
	}
	for rounds := 0; rounds < 10 && visit(); rounds++ {
	}
	return roots
}

// sinkArgs reports which argument indices of the call flow into JSON
// encoding, for direct encoding/json entry points.
func sinkArgs(pass *analysis.Pass, call *ast.CallExpr) []int {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "encoding/json" {
		return nil
	}
	switch fn.Name() {
	case "Marshal", "MarshalIndent":
		return []int{0}
	case "Unmarshal":
		return []int{1}
	case "Encode", "Decode": // methods on *Encoder / *Decoder
		return []int{0}
	}
	return nil
}

// calleeFunc resolves a call's static callee, if it is a declared
// function or method.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// addReachable adds every named struct declared in pkg that is reachable
// from t through serialized fields (pointers, slices, arrays and maps
// included; fields tagged json:"-" excluded) to the wire set.
func addReachable(pkg *types.Package, t types.Type, wire map[*types.Named]bool) {
	switch t := t.(type) {
	case *types.Pointer:
		addReachable(pkg, t.Elem(), wire)
	case *types.Slice:
		addReachable(pkg, t.Elem(), wire)
	case *types.Array:
		addReachable(pkg, t.Elem(), wire)
	case *types.Map:
		addReachable(pkg, t.Elem(), wire)
	case *types.Named:
		st, ok := t.Underlying().(*types.Struct)
		if !ok || t.Obj().Pkg() != pkg || wire[t] {
			return
		}
		wire[t] = true
		for i := 0; i < st.NumFields(); i++ {
			if tagName(st.Tag(i)) == "-" {
				continue
			}
			addReachable(pkg, st.Field(i).Type(), wire)
		}
	}
}

// tagName extracts the json tag's name component ("-" for opted-out
// fields, "" when no tag is present).
func tagName(tag string) string {
	jt, ok := reflect.StructTag(tag).Lookup("json")
	if !ok {
		return ""
	}
	if i := indexComma(jt); i >= 0 {
		return jt[:i]
	}
	return jt
}

func indexComma(s string) int {
	for i := 0; i < len(s); i++ {
		if s[i] == ',' {
			return i
		}
	}
	return -1
}

// hasJSONTag reports whether the raw struct tag has a json key at all.
func hasJSONTag(tag string) bool {
	_, ok := reflect.StructTag(tag).Lookup("json")
	return ok
}

// checkStruct applies the wire rules to one struct declaration.
func checkStruct(pass *analysis.Pass, dirs *lintutil.Directives, named *types.Named, st *ast.StructType) {
	// A type that owns its encoding is exempt wholesale.
	if ownsEncoding(named) {
		return
	}
	tstruct := named.Underlying().(*types.Struct)
	idx := 0
	for _, f := range st.Fields.List {
		names := f.Names
		if len(names) == 0 {
			names = []*ast.Ident{nil} // embedded
		}
		for _, name := range names {
			field := tstruct.Field(idx)
			tag := tstruct.Tag(idx)
			idx++
			pos := f.Type.Pos()
			fieldDesc := "embedded field " + field.Name()
			if name != nil {
				pos = name.Pos()
				fieldDesc = "field " + name.Name
			}
			if tagName(tag) == "-" {
				continue // explicitly off the wire
			}
			if lintutil.HasDirective(f.Doc, Directive) || lintutil.HasDirective(f.Comment, Directive) {
				continue
			}
			if !field.Exported() {
				if hasJSONTag(tag) {
					pass.Reportf(pos, "wire struct %s: unexported %s carries a json tag, but encoding/json ignores unexported fields",
						named.Obj().Name(), fieldDesc)
				}
				continue // never serialized
			}
			if name != nil && !hasJSONTag(tag) {
				pass.Reportf(pos, "wire struct %s: exported %s has no json tag; wire names must be explicit, or opt out with json:\"-\"",
					named.Obj().Name(), fieldDesc)
			}
			if path := unserializable(field.Type(), nil); path != "" {
				pass.Reportf(pos, "wire struct %s: %s is not JSON-serializable (%s); tag it json:\"-\", ship a declarative spec instead, or annotate //resim:%s <reason>",
					named.Obj().Name(), fieldDesc, path, Directive)
			}
		}
	}
}

// ownsEncoding reports whether t (or *t) implements json.Marshaler or
// encoding.TextMarshaler, detected structurally so the analyzer does not
// itself import those packages into the checked graph.
func ownsEncoding(t types.Type) bool {
	for _, name := range []string{"MarshalJSON", "MarshalText"} {
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(t), true, nil, name)
		if fn, ok := obj.(*types.Func); ok {
			sig := fn.Type().(*types.Signature)
			if sig.Params().Len() == 0 && sig.Results().Len() == 2 {
				return true
			}
		}
	}
	return false
}

// unserializable walks t through serialized fields and returns a
// human-readable path to the first func/chan/unsafe.Pointer/interface it
// reaches, or "" when the type is statically serializable. Types that own
// their encoding stop the walk.
func unserializable(t types.Type, seen []types.Type) string {
	for _, s := range seen {
		if s == t {
			return ""
		}
	}
	seen = append(seen, t)

	switch t := t.(type) {
	case *types.Basic:
		if t.Kind() == types.UnsafePointer {
			return "unsafe.Pointer"
		}
		return ""
	case *types.Signature:
		return "func value"
	case *types.Chan:
		return "channel"
	case *types.Interface:
		return fmt.Sprintf("interface value %s; the dynamic type is not a wire contract", t)
	case *types.Pointer:
		return unserializable(t.Elem(), seen)
	case *types.Slice:
		return prefixPath("element: ", unserializable(t.Elem(), seen))
	case *types.Array:
		return prefixPath("element: ", unserializable(t.Elem(), seen))
	case *types.Map:
		if bad := badMapKey(t.Key()); bad != "" {
			return bad
		}
		return prefixPath("map value: ", unserializable(t.Elem(), seen))
	case *types.Named:
		if ownsEncoding(t) {
			return ""
		}
		if st, ok := t.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() || tagName(st.Tag(i)) == "-" {
					continue
				}
				if path := unserializable(f.Type(), seen); path != "" {
					return fmt.Sprintf("%s.%s: %s", t.Obj().Name(), f.Name(), path)
				}
			}
			return ""
		}
		return unserializable(t.Underlying(), seen)
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			f := t.Field(i)
			if !f.Exported() || tagName(t.Tag(i)) == "-" {
				continue
			}
			if path := unserializable(f.Type(), seen); path != "" {
				return fmt.Sprintf("%s: %s", f.Name(), path)
			}
		}
		return ""
	}
	return ""
}

// prefixPath prepends context to a non-empty unserializable path.
func prefixPath(prefix, path string) string {
	if path == "" {
		return ""
	}
	return prefix + path
}

// badMapKey reports why a map key type cannot be a JSON object key, or ""
// when it can (strings, integers, text marshalers).
func badMapKey(k types.Type) string {
	if ownsEncoding(k) {
		return ""
	}
	if b, ok := k.Underlying().(*types.Basic); ok {
		if b.Info()&(types.IsString|types.IsInteger) != 0 {
			return ""
		}
	}
	return fmt.Sprintf("map key type %s cannot be a JSON object key", k)
}

package bodyscan

import (
	"go/ast"
	"go/token"
	"reflect"
)

func (ip *interp) evalExpr(e ast.Expr, env *env) val {
	vs := ip.evalMulti(e, env)
	if len(vs) != 1 {
		unknown("expected single value, got %d", len(vs))
	}
	return vs[0]
}

func (ip *interp) evalMulti(e ast.Expr, env *env) []val {
	switch x := e.(type) {
	case *ast.BasicLit:
		return []val{evalBasicLit(x)}
	case *ast.Ident:
		return []val{ip.evalIdent(x, env)}
	case *ast.ParenExpr:
		return ip.evalMulti(x.X, env)
	case *ast.SelectorExpr:
		return []val{ip.evalSelector(x, env)}
	case *ast.CallExpr:
		return ip.evalCall(x, env)
	case *ast.BinaryExpr:
		return []val{ip.evalBinary(x, env)}
	case *ast.UnaryExpr:
		return []val{ip.evalUnary(x, env)}
	case *ast.StarExpr:
		v := ip.evalExpr(x.X, env)
		if sv := asStruct(v); sv != nil {
			return []val{{rv: reflect.ValueOf(sv)}}
		}
		if v.rv.IsValid() && v.rv.Kind() == reflect.Ptr {
			return []val{{rv: v.rv.Elem()}}
		}
		unknown("unsupported dereference")
	case *ast.IndexExpr:
		return []val{ip.evalIndex(x, env)}
	case *ast.SliceExpr:
		return []val{ip.evalSlice(x, env)}
	case *ast.CompositeLit:
		return []val{ip.evalComposite(x, env, nil)}
	case *ast.FuncLit:
		return []val{{rv: reflect.ValueOf(&funcVal{
			name: "literal", params: x.Type.Params, results: x.Type.Results,
			body: x.Body, env: env,
		})}}
	}
	unknown("unsupported expression %T", e)
	return nil
}

func (ip *interp) evalIdent(x *ast.Ident, env *env) val {
	switch x.Name {
	case "true":
		return goval(true)
	case "false":
		return goval(false)
	case "nil":
		return nilVal
	}
	if c := env.lookup(x.Name); c != nil {
		return c.v
	}
	if fd, ok := ip.prog.funcs[x.Name]; ok {
		return val{rv: reflect.ValueOf(ip.prog.declFunc(fd))}
	}
	unknown("undefined identifier %s", x.Name)
	return nilVal
}

func (ip *interp) evalSelector(x *ast.SelectorExpr, env *env) val {
	if id, ok := x.X.(*ast.Ident); ok && env.lookup(id.Name) == nil {
		if v, ok := resolvePkgSel(id.Name, x.Sel.Name); ok {
			return v
		}
		if m, ok := pkgVals[id.Name]; ok && m != nil {
			unknown("unmodeled selector %s.%s", id.Name, x.Sel.Name)
		}
	}
	recv := ip.evalExpr(x.X, env)
	if sv := asStruct(recv); sv != nil {
		if v, ok := sv.fields[x.Sel.Name]; ok {
			return v
		}
		if sv.typ != nil {
			if ft, ok := sv.typ.fields[x.Sel.Name]; ok {
				return ip.zeroVal(ft)
			}
		}
		unknown("unknown field %s", x.Sel.Name)
	}
	rv := recv.rv
	if !rv.IsValid() {
		unknown("field access on nil")
	}
	if rv.Kind() == reflect.Ptr {
		if rv.IsNil() {
			unknown("field access on nil pointer")
		}
		rv = rv.Elem()
	}
	if rv.Kind() == reflect.Struct {
		f := rv.FieldByName(x.Sel.Name)
		if f.IsValid() {
			return val{rv: f}
		}
	}
	unknown("unsupported selector .%s on %v", x.Sel.Name, recv.rv.Kind())
	return nilVal
}

func (ip *interp) evalIndex(x *ast.IndexExpr, env *env) val {
	base := ip.evalExpr(x.X, env)
	idxv := ip.evalExpr(x.Index, env)
	idx := toInt(idxv)
	rv := base.rv
	if !rv.IsValid() {
		unknown("index of nil")
	}
	switch rv.Kind() {
	case reflect.String:
		s := rv.String()
		if idx < 0 || idx >= len(s) {
			unknown("string index out of range")
		}
		return goval(s[idx])
	case reflect.Slice, reflect.Array:
		if idx < 0 || idx >= rv.Len() {
			unknown("index out of range")
		}
		out := val{rv: rv.Index(idx)}
		if rv.Kind() == reflect.Slice {
			if tags, ok := ip.argTags[rv.Pointer()]; ok && idx < len(tags) {
				out.tag = tags[idx]
			}
		}
		return out
	}
	unknown("unsupported index on %v", rv.Kind())
	return nilVal
}

func (ip *interp) evalSlice(x *ast.SliceExpr, env *env) val {
	base := ip.evalExpr(x.X, env)
	rv := base.rv
	if !rv.IsValid() {
		unknown("slice of nil")
	}
	lo, hi := 0, 0
	switch rv.Kind() {
	case reflect.String:
		hi = rv.Len()
	case reflect.Slice:
		hi = rv.Len()
	case reflect.Array:
		if !rv.CanAddr() {
			unknown("slice of unaddressable array")
		}
		hi = rv.Len()
	default:
		unknown("unsupported slice on %v", rv.Kind())
	}
	if x.Low != nil {
		lo = toInt(ip.evalExpr(x.Low, env))
	}
	if x.High != nil {
		hi = toInt(ip.evalExpr(x.High, env))
	}
	if x.Slice3 {
		unknown("full slice expression")
	}
	if lo < 0 || hi < lo || hi > rv.Len() {
		unknown("slice bounds out of range")
	}
	return val{rv: rv.Slice(lo, hi)}
}

func (ip *interp) evalUnary(x *ast.UnaryExpr, env *env) val {
	if x.Op == token.AND {
		if cl, ok := x.X.(*ast.CompositeLit); ok {
			return ip.evalComposite(cl, env, nil)
		}
		v := ip.evalExpr(x.X, env)
		if v.rv.IsValid() && v.rv.Type() == structValType {
			return val{rv: reflect.ValueOf(sptr{s: v.rv.Interface().(*structVal)})}
		}
		unknown("unsupported address-of")
	}
	v := ip.evalExpr(x.X, env)
	switch x.Op {
	case token.NOT:
		return val{rv: reflect.ValueOf(!truth(v))}
	case token.SUB:
		zero := val{rv: reflect.ValueOf(0), untyped: true}
		return ip.binop(token.SUB, zero, v)
	case token.ADD:
		return v
	case token.XOR:
		allOnes := val{rv: reflect.ValueOf(-1), untyped: true}
		return ip.binop(token.XOR, allOnes, v)
	}
	unknown("unsupported unary %v", x.Op)
	return nilVal
}

func (ip *interp) evalBinary(x *ast.BinaryExpr, env *env) val {
	switch x.Op {
	case token.LAND:
		l := ip.evalExpr(x.X, env)
		if !truth(l) {
			return goval(false)
		}
		return val{rv: reflect.ValueOf(truth(ip.evalExpr(x.Y, env)))}
	case token.LOR:
		l := ip.evalExpr(x.X, env)
		if truth(l) {
			return goval(true)
		}
		return val{rv: reflect.ValueOf(truth(ip.evalExpr(x.Y, env)))}
	}
	return ip.binop(x.Op, ip.evalExpr(x.X, env), ip.evalExpr(x.Y, env))
}

// ---- arithmetic ----

func isComparison(op token.Token) bool {
	switch op {
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		return true
	}
	return false
}

func convertVal(v val, t reflect.Type) val {
	if !v.rv.IsValid() {
		unknown("conversion of nil value")
	}
	if v.rv.Type() == t {
		return val{rv: v.rv, tag: v.tag}
	}
	if !v.rv.Type().ConvertibleTo(t) {
		unknown("cannot convert %v to %v", v.rv.Type(), t)
	}
	return val{rv: v.rv.Convert(t), tag: v.tag}
}

func (ip *interp) binop(op token.Token, x, y val) val {
	if !x.rv.IsValid() || !y.rv.IsValid() {
		// nil comparison
		if op == token.EQL || op == token.NEQ {
			other := x
			if !x.rv.IsValid() {
				other = y
			}
			isNil := true
			if other.rv.IsValid() {
				switch other.rv.Kind() {
				case reflect.Ptr, reflect.Slice, reflect.Map, reflect.Func, reflect.Interface, reflect.Chan:
					isNil = other.rv.IsNil()
				default:
					unknown("nil comparison with %v", other.rv.Kind())
				}
			}
			if op == token.EQL {
				return goval(isNil)
			}
			return goval(!isNil)
		}
		unknown("nil operand in %v", op)
	}

	// Shift counts keep the left operand's type.
	if op == token.SHL || op == token.SHR {
		n := toUint64(y)
		t := x.rv.Type()
		switch x.rv.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			r := x.rv.Int()
			if op == token.SHL {
				r <<= n
			} else {
				r >>= n
			}
			return val{rv: reflect.ValueOf(r).Convert(t), untyped: x.untyped}
		default:
			r := x.rv.Uint()
			if op == token.SHL {
				r <<= n
			} else {
				r >>= n
			}
			return val{rv: reflect.ValueOf(r).Convert(t), untyped: x.untyped}
		}
	}

	// Untyped constants adopt the other operand's type.
	if x.untyped && !y.untyped && isScalarKind(y.rv.Kind()) {
		x = val{rv: x.rv.Convert(y.rv.Type()), untyped: false, tag: x.tag}
	} else if y.untyped && !x.untyped && isScalarKind(x.rv.Kind()) {
		y = val{rv: y.rv.Convert(x.rv.Type()), untyped: false, tag: y.tag}
	}
	untyped := x.untyped && y.untyped

	if x.rv.Type() != y.rv.Type() {
		unknown("mismatched operand types %v and %v", x.rv.Type(), y.rv.Type())
	}
	t := x.rv.Type()

	switch x.rv.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		a, b := x.rv.Int(), y.rv.Int()
		if isComparison(op) {
			return goval(cmpOrdered(op, a, b))
		}
		var r int64
		switch op {
		case token.ADD:
			r = a + b
		case token.SUB:
			r = a - b
		case token.MUL:
			r = a * b
		case token.QUO:
			if b == 0 {
				unknown("integer division by zero")
			}
			r = a / b
		case token.REM:
			if b == 0 {
				unknown("integer modulo by zero")
			}
			r = a % b
		case token.AND:
			r = a & b
		case token.OR:
			r = a | b
		case token.XOR:
			r = a ^ b
		case token.AND_NOT:
			r = a &^ b
		default:
			unknown("unsupported int op %v", op)
		}
		return val{rv: reflect.ValueOf(r).Convert(t), untyped: untyped}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		a, b := x.rv.Uint(), y.rv.Uint()
		if isComparison(op) {
			return goval(cmpOrdered(op, a, b))
		}
		var r uint64
		switch op {
		case token.ADD:
			r = a + b
		case token.SUB:
			r = a - b
		case token.MUL:
			r = a * b
		case token.QUO:
			if b == 0 {
				unknown("integer division by zero")
			}
			r = a / b
		case token.REM:
			if b == 0 {
				unknown("integer modulo by zero")
			}
			r = a % b
		case token.AND:
			r = a & b
		case token.OR:
			r = a | b
		case token.XOR:
			r = a ^ b
		case token.AND_NOT:
			r = a &^ b
		default:
			unknown("unsupported uint op %v", op)
		}
		return val{rv: reflect.ValueOf(r).Convert(t), untyped: untyped}
	case reflect.Float64, reflect.Float32:
		a, b := x.rv.Float(), y.rv.Float()
		if isComparison(op) {
			return goval(cmpOrdered(op, a, b))
		}
		var r float64
		switch op {
		case token.ADD:
			r = a + b
		case token.SUB:
			r = a - b
		case token.MUL:
			r = a * b
		case token.QUO:
			r = a / b
		default:
			unknown("unsupported float op %v", op)
		}
		return val{rv: reflect.ValueOf(r).Convert(t), untyped: untyped}
	case reflect.String:
		a, b := x.rv.String(), y.rv.String()
		if isComparison(op) {
			return goval(cmpOrdered(op, a, b))
		}
		if op == token.ADD {
			return val{rv: reflect.ValueOf(a + b), untyped: untyped}
		}
		unknown("unsupported string op %v", op)
	case reflect.Bool:
		if op == token.EQL {
			return goval(x.rv.Bool() == y.rv.Bool())
		}
		if op == token.NEQ {
			return goval(x.rv.Bool() != y.rv.Bool())
		}
		unknown("unsupported bool op %v", op)
	case reflect.Ptr:
		if op == token.EQL {
			return goval(x.rv.Pointer() == y.rv.Pointer())
		}
		if op == token.NEQ {
			return goval(x.rv.Pointer() != y.rv.Pointer())
		}
		unknown("unsupported pointer op %v", op)
	}
	unknown("unsupported operand kind %v", x.rv.Kind())
	return nilVal
}

func cmpOrdered[T int64 | uint64 | float64 | string](op token.Token, a, b T) bool {
	switch op {
	case token.EQL:
		return a == b
	case token.NEQ:
		return a != b
	case token.LSS:
		return a < b
	case token.LEQ:
		return a <= b
	case token.GTR:
		return a > b
	case token.GEQ:
		return a >= b
	}
	unknown("bad comparison %v", op)
	return false
}

// ---- types, zero values, composites ----

func newIstruct(name string, st *ast.StructType) *istruct {
	is := &istruct{name: name, fields: map[string]ast.Expr{}}
	for _, f := range st.Fields.List {
		for _, n := range f.Names {
			is.order = append(is.order, n.Name)
			is.fields[n.Name] = f.Type
		}
	}
	return is
}

func (ip *interp) lookupStruct(name string) *istruct {
	if is, ok := ip.localTypes[name]; ok {
		return is
	}
	if is, ok := ip.prog.types[name]; ok {
		return is
	}
	return nil
}

// resolveType maps a type expression to a concrete reflect.Type, or to
// an interpreted struct.
func (ip *interp) resolveType(e ast.Expr) (reflect.Type, *istruct) {
	switch t := e.(type) {
	case *ast.Ident:
		if rt, ok := basicTypes[t.Name]; ok {
			return rt, nil
		}
		if is := ip.lookupStruct(t.Name); is != nil {
			return nil, is
		}
		if ip.prog != nil && ip.prog.funcTypes[t.Name] {
			return funcValType, nil
		}
	case *ast.SelectorExpr:
		if id, ok := t.X.(*ast.Ident); ok {
			if m, ok := pkgTypes[id.Name]; ok {
				if rt, ok := m[t.Sel.Name]; ok {
					return rt, nil
				}
			}
		}
	case *ast.StarExpr:
		rt, is := ip.resolveType(t.X)
		if is != nil {
			return nil, is // pointer-to-interpreted-struct: aliasing sptr
		}
		if rt != nil {
			return reflect.PtrTo(rt), nil
		}
	case *ast.ArrayType:
		rt, is := ip.resolveType(t.Elt)
		if is != nil {
			return nil, nil
		}
		if rt == nil {
			return nil, nil
		}
		if t.Len == nil {
			return reflect.SliceOf(rt), nil
		}
		n := toInt(ip.evalExpr(t.Len, newEnv(nil)))
		return reflect.ArrayOf(n, rt), nil
	case *ast.FuncType:
		return funcValType, nil
	}
	return nil, nil
}

func (ip *interp) zeroVal(typeExpr ast.Expr) val {
	rt, is := ip.resolveType(typeExpr)
	if is != nil {
		sv := &structVal{typ: is, fields: map[string]val{}}
		for _, fn := range is.order {
			sv.fields[fn] = ip.zeroVal(is.fields[fn])
		}
		return val{rv: reflect.ValueOf(sv)}
	}
	if rt == nil {
		unknown("cannot zero-init unmodeled type")
	}
	if rt == funcValType {
		return nilVal
	}
	return val{rv: reflect.New(rt).Elem()}
}

func (ip *interp) evalComposite(cl *ast.CompositeLit, env *env, hint ast.Expr) val {
	typeExpr := cl.Type
	if typeExpr == nil {
		typeExpr = hint
	}
	if typeExpr == nil {
		unknown("untyped composite literal")
	}
	switch t := typeExpr.(type) {
	case *ast.Ident:
		is := ip.lookupStruct(t.Name)
		if is == nil {
			unknown("composite literal of unknown type %s", t.Name)
		}
		return ip.structLit(is, cl, env)
	case *ast.ArrayType:
		rt, is := ip.resolveType(t)
		if is == nil && rt == nil {
			// []localStruct{...}: build a slice of interpreted structs
			if elemID, ok := t.Elt.(*ast.Ident); ok {
				if eis := ip.lookupStruct(elemID.Name); eis != nil {
					out := make([]*structVal, 0, len(cl.Elts))
					for _, el := range cl.Elts {
						ecl, ok := el.(*ast.CompositeLit)
						if !ok {
							unknown("struct slice element is not a literal")
						}
						sv := ip.structLit(eis, ecl, env)
						out = append(out, sv.rv.Interface().(*structVal))
					}
					return val{rv: reflect.ValueOf(out)}
				}
			}
			unknown("unsupported composite element type")
		}
		elemT := rt.Elem()
		n := len(cl.Elts)
		var out reflect.Value
		if rt.Kind() == reflect.Array {
			out = reflect.New(rt).Elem()
		} else {
			out = reflect.MakeSlice(rt, n, n)
		}
		for i, el := range cl.Elts {
			v := ip.evalExpr(el, env)
			out.Index(i).Set(convertVal(v, elemT).rv)
		}
		return val{rv: out}
	}
	unknown("unsupported composite literal type %T", typeExpr)
	return nilVal
}

func (ip *interp) structLit(is *istruct, cl *ast.CompositeLit, env *env) val {
	sv := &structVal{typ: is, fields: map[string]val{}}
	keyed := len(cl.Elts) > 0
	if keyed {
		_, keyed = cl.Elts[0].(*ast.KeyValueExpr)
	}
	if keyed {
		for _, el := range cl.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				unknown("mixed keyed and positional literal")
			}
			name := kv.Key.(*ast.Ident).Name
			sv.fields[name] = ip.fieldValue(is, name, kv.Value, env)
		}
	} else {
		if len(cl.Elts) != len(is.order) && len(cl.Elts) != 0 {
			if len(cl.Elts) > len(is.order) {
				unknown("too many positional fields for %s", is.name)
			}
		}
		for i, el := range cl.Elts {
			name := is.order[i]
			sv.fields[name] = ip.fieldValue(is, name, el, env)
		}
	}
	// zero-fill missing fields so later reads see typed zeros
	for _, fn := range is.order {
		if _, ok := sv.fields[fn]; !ok {
			sv.fields[fn] = ip.safeZero(is.fields[fn])
		}
	}
	return val{rv: reflect.ValueOf(sv)}
}

// fieldValue evaluates one struct-literal field, giving untyped
// constants the field's declared type.
func (ip *interp) fieldValue(is *istruct, name string, e ast.Expr, env *env) val {
	v := copyIfStruct(ip.evalExpr(e, env))
	if v.untyped {
		if rt, _ := ip.resolveType(is.fields[name]); rt != nil && isScalarKind(rt.Kind()) {
			return convertVal(v, rt)
		}
	}
	return v
}

// safeZero is zeroVal but yields an untyped nil for unmodeled types
// instead of failing (struct fields of types the body never touches).
func (ip *interp) safeZero(typeExpr ast.Expr) (out val) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(unknownf); ok {
				out = nilVal
				return
			}
			panic(r)
		}
	}()
	return ip.zeroVal(typeExpr)
}

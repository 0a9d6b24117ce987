package bodyscan

import (
	"go/ast"
	"reflect"

	"healers/internal/cmem"
	"healers/internal/csim"
)

// evalCall dispatches a call expression: builtins, type conversions,
// interpreted functions and closures, library intrinsics (l.add,
// l.Call), and reflective calls into the real csim/cmem packages with
// memory-access interception.
func (ip *interp) evalCall(x *ast.CallExpr, env *env) []val {
	fun := ast.Unparen(x.Fun)

	// []byte(s) and friends
	if at, ok := fun.(*ast.ArrayType); ok {
		rt, _ := ip.resolveType(at)
		if rt == nil {
			unknown("conversion to unmodeled slice type")
		}
		v := ip.evalExpr(x.Args[0], env)
		return []val{convertVal(v, rt)}
	}

	switch f := fun.(type) {
	case *ast.Ident:
		switch f.Name {
		case "len":
			v := ip.evalExpr(x.Args[0], env)
			if !v.rv.IsValid() {
				return []val{goval(0)} // a nil slice or map; nothing else compiles
			}
			switch v.rv.Kind() {
			case reflect.String, reflect.Slice, reflect.Array, reflect.Map:
				return []val{goval(v.rv.Len())}
			}
			unknown("len of %v", v.rv.Kind())
		case "cap":
			v := ip.evalExpr(x.Args[0], env)
			if v.rv.IsValid() && v.rv.Kind() == reflect.Slice {
				return []val{goval(v.rv.Cap())}
			}
			unknown("cap of non-slice")
		case "append":
			return []val{ip.evalAppend(x, env)}
		case "make":
			rt, _ := ip.resolveType(x.Args[0])
			if rt == nil || rt.Kind() != reflect.Slice || len(x.Args) != 2 {
				unknown("unsupported make")
			}
			n := toInt(ip.evalExpr(x.Args[1], env))
			if n < 0 {
				unknown("make with negative length")
			}
			return []val{{rv: reflect.MakeSlice(rt, n, n)}}
		case "copy":
			dst, src := ip.evalExpr(x.Args[0], env), ip.evalExpr(x.Args[1], env)
			if !dst.rv.IsValid() || !src.rv.IsValid() || dst.rv.Kind() != reflect.Slice {
				unknown("unsupported copy")
			}
			return []val{goval(reflect.Copy(dst.rv, src.rv))}
		case "panic":
			unknown("interpreted panic")
		}
		if rt, ok := basicTypes[f.Name]; ok && env.lookup(f.Name) == nil {
			v := ip.evalExpr(x.Args[0], env)
			return []val{convertVal(v, rt)}
		}
		if c := env.lookup(f.Name); c != nil {
			if fv := asFunc(c.v); fv != nil {
				return ip.invoke(fv, ip.evalArgs(x, env))
			}
			if c.v.rv.IsValid() && c.v.rv.Kind() == reflect.Func {
				return ip.realCall(c.v.rv, ip.evalArgs(x, env))
			}
			unknown("call of non-function %s", f.Name)
		}
		if fd, ok := ip.prog.funcs[f.Name]; ok {
			return ip.invoke(ip.prog.declFunc(fd), ip.evalArgs(x, env))
		}
		unknown("call of unknown identifier %s", f.Name)

	case *ast.SelectorExpr:
		// Package-qualified call or conversion: fmt.Sprintf, cmem.Addr(x)
		if id, ok := f.X.(*ast.Ident); ok && env.lookup(id.Name) == nil {
			if m, ok := pkgTypes[id.Name]; ok {
				if rt, ok := m[f.Sel.Name]; ok {
					v := ip.evalExpr(x.Args[0], env)
					return []val{convertVal(v, rt)}
				}
			}
			if v, ok := resolvePkgSel(id.Name, f.Sel.Name); ok {
				if v.rv.Kind() != reflect.Func {
					unknown("call of non-function %s.%s", id.Name, f.Sel.Name)
				}
				return ip.realCall(v.rv, ip.evalArgs(x, env))
			}
			if _, ok := pkgVals[id.Name]; ok {
				unknown("unmodeled call %s.%s", id.Name, f.Sel.Name)
			}
		}
		recv := ip.evalExpr(f.X, env)
		if recv.rv.IsValid() && recv.rv.Type() == libType {
			return ip.callLibrary(recv.rv.Interface().(*libHandle), f.Sel.Name, x, env)
		}
		if sv := asStruct(recv); sv != nil {
			// closure stored in a struct field
			if fv, ok := sv.fields[f.Sel.Name]; ok {
				if cf := asFunc(fv); cf != nil {
					return ip.invoke(cf, ip.evalArgs(x, env))
				}
			}
			unknown("method call on interpreted struct")
		}
		if recv.rv.IsValid() && recv.rv.Type() == processType {
			return ip.callProcess(recv.rv, f.Sel.Name, x, env)
		}
		if recv.rv.IsValid() {
			m := recv.rv.MethodByName(f.Sel.Name)
			if m.IsValid() {
				return ip.realCall(m, ip.evalArgs(x, env))
			}
		}
		unknown("unsupported method call .%s", f.Sel.Name)

	default:
		v := ip.evalExpr(fun, env)
		if fv := asFunc(v); fv != nil {
			return ip.invoke(fv, ip.evalArgs(x, env))
		}
		if v.rv.IsValid() && v.rv.Kind() == reflect.Func {
			return ip.realCall(v.rv, ip.evalArgs(x, env))
		}
		unknown("unsupported call %T", fun)
	}
	return nil
}

// evalArgs evaluates the plain (non-ellipsis) argument list.
func (ip *interp) evalArgs(x *ast.CallExpr, env *env) []val {
	if x.Ellipsis.IsValid() {
		unknown("unexpected ... argument")
	}
	out := make([]val, len(x.Args))
	for i, a := range x.Args {
		out[i] = ip.evalExpr(a, env)
	}
	return out
}

func (ip *interp) evalAppend(x *ast.CallExpr, env *env) val {
	base := ip.evalExpr(x.Args[0], env)
	rv := base.rv
	if x.Ellipsis.IsValid() {
		tail := ip.evalExpr(x.Args[len(x.Args)-1], env)
		if !rv.IsValid() {
			return tail
		}
		tv := tail.rv
		if tv.Kind() == reflect.String && rv.Type().Elem().Kind() == reflect.Uint8 {
			tv = reflect.ValueOf([]byte(tv.String())) // append(b, s...)
		}
		if tv.Kind() != reflect.Slice {
			unknown("append %s... to slice", tv.Kind())
		}
		return val{rv: reflect.AppendSlice(rv, tv)}
	}
	for _, a := range x.Args[1:] {
		v := ip.evalExpr(a, env)
		if !rv.IsValid() {
			unknown("append to untyped nil")
		}
		rv = reflect.Append(rv, convertVal(v, rv.Type().Elem()).rv)
	}
	return val{rv: rv}
}

// realCall invokes a real reflect func with interpreted arguments.
func (ip *interp) realCall(fn reflect.Value, args []val) []val {
	ft := fn.Type()
	in := make([]reflect.Value, len(args))
	for i, a := range args {
		var pt reflect.Type
		if ft.IsVariadic() && i >= ft.NumIn()-1 {
			pt = ft.In(ft.NumIn() - 1).Elem()
		} else {
			if i >= ft.NumIn() {
				unknown("too many arguments in call")
			}
			pt = ft.In(i)
		}
		in[i] = convertArg(a, pt)
	}
	if !ft.IsVariadic() && len(args) != ft.NumIn() {
		unknown("argument count mismatch: %d != %d", len(args), ft.NumIn())
	}
	outs := fn.Call(in)
	res := make([]val, len(outs))
	for i, o := range outs {
		res[i] = val{rv: o}
	}
	return res
}

// convertArg adapts one interpreted value to a real parameter type.
func convertArg(v val, t reflect.Type) reflect.Value {
	if t.Kind() == reflect.Interface {
		if !v.rv.IsValid() {
			return reflect.Zero(t)
		}
		return v.rv
	}
	if !v.rv.IsValid() {
		switch t.Kind() {
		case reflect.Ptr, reflect.Slice, reflect.Map, reflect.Func, reflect.Chan:
			return reflect.Zero(t)
		}
		unknown("nil argument for %v", t)
	}
	if v.rv.Kind() == reflect.Func || t.Kind() == reflect.Func {
		unknown("function value crossing the interpreter boundary")
	}
	return convertVal(v, t).rv
}

// callLibrary dispatches l.<method>: the Call and add intrinsics plus
// interpreted *Library methods such as alias.
func (ip *interp) callLibrary(l *libHandle, name string, x *ast.CallExpr, env *env) []val {
	switch name {
	case "Call":
		// l.Call(p, target, args...) inlines the target's interpreted
		// body; the compiled clib Impl is never invoked.
		if len(x.Args) < 2 {
			unknown("l.Call arity")
		}
		ip.evalExpr(x.Args[0], env) // the process; always ip.p
		tv := ip.evalExpr(x.Args[1], env)
		if !tv.rv.IsValid() || tv.rv.Kind() != reflect.String {
			unknown("l.Call with non-constant target")
		}
		target := tv.rv.String()
		if x.Ellipsis.IsValid() {
			if len(x.Args) != 3 {
				unknown("l.Call slice-forward arity")
			}
			sl := ip.evalExpr(x.Args[2], env)
			return []val{ip.callSliceByName(target, sl)}
		}
		var args []val
		for _, a := range x.Args[2:] {
			args = append(args, ip.evalExpr(a, env))
		}
		return []val{ip.callByName(target, args)}
	case "add":
		sv := asStruct(ip.evalExpr(x.Args[0], env))
		if sv == nil {
			unknown("l.add of non-struct")
		}
		l.prog.register(sv)
		return nil
	case "MustLookup", "Lookup", "Names", "External", "Internal", "CrashProne86":
		unknown("unmodeled Library method %s", name)
	}
	fd, ok := ip.prog.methods[name]
	if !ok {
		unknown("unknown Library method %s", name)
	}
	menv := newEnv(ip.prog.pkgEnv)
	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		menv.define(fd.Recv.List[0].Names[0].Name, val{rv: reflect.ValueOf(l)})
	}
	fv := &funcVal{name: name, params: fd.Type.Params, results: fd.Type.Results, body: fd.Body, env: menv}
	return ip.invoke(fv, ip.evalArgs(x, env))
}

// callProcess invokes a real *csim.Process method and logs what its
// csim.Footprints row says it touches: accesses that land inside the
// tracked argument's region, and flow of the tracked value into the
// descriptor table or the callback trampoline. Accesses are noted
// before the call, so an attempted access that faults still counts
// (covers() includes the trailing guard page); a scan whose extent is
// the returned string is noted after it.
func (ip *interp) callProcess(recv reflect.Value, name string, x *ast.CallExpr, env *env) []val {
	args := ip.evalArgs(x, env)
	fp, hasRow := csim.Footprints[name]
	if !hasRow && !csim.NoArgMemory[name] {
		unknown("Process.%s has no footprint row", name)
	}
	m := recv.MethodByName(name)
	if !m.IsValid() {
		unknown("no Process method %s", name)
	}
	lg := ip.log
	if !hasRow || lg == nil {
		return ip.realCall(m, args)
	}

	var addr cmem.Addr
	if fp.Src != csim.LenNone || fp.CStr {
		addr = cmem.Addr(toUint64(args[fp.Arg])) + cmem.Addr(fp.Off)
	}
	if fp.CStr && lg.covers(addr) {
		if fp.Kernel {
			lg.kernelCStr = true
		} else {
			lg.cstr = true
		}
	}
	if lg.trkTag != 0 && fp.Arg < len(args) && args[fp.Arg].tag == lg.trkTag {
		lg.fdUse = lg.fdUse || fp.FD
		lg.funcPtr = lg.funcPtr || fp.Code
	}
	switch fp.Src {
	case csim.LenFixed:
		lg.note(addr, fp.N, fp.Write, fp.Kernel)
	case csim.LenArg:
		lg.note(addr, toInt(args[fp.Len]), fp.Write, fp.Kernel)
	case csim.LenOf:
		n := 0
		if rv := args[fp.Len].rv; rv.IsValid() && (rv.Kind() == reflect.Slice || rv.Kind() == reflect.String) {
			n = rv.Len()
		}
		lg.note(addr, n+fp.N, fp.Write, fp.Kernel)
	}
	res := ip.realCall(m, args)
	if fp.Src == csim.LenResult {
		lg.note(addr, res[0].rv.Len()+fp.N, fp.Write, fp.Kernel)
	}
	return res
}

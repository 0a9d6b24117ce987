package typesys

import (
	"slices"
	"strconv"
	"strings"
)

// Concrete hierarchy builders. The fixed-size array hierarchy is the
// paper's Figure 3; the file pointer hierarchy is Figure 4. Both are
// parameterized by the concrete sizes observed during fault injection —
// the hierarchy is instantiated a posteriori over the sizes the
// adaptive generator actually probed.

// Well-known type names shared by generators, the injector, the
// declaration format, and the wrapper's checking functions.
const (
	TypeNull          = "NULL"
	TypeInvalid       = "INVALID"
	TypeUnconstrained = "UNCONSTRAINED"

	TypeCString      = "CSTR"
	TypeCStringW     = "W_CSTR"
	TypeCStringNull  = "CSTR_NULL"
	TypeCStringWNull = "W_CSTR_NULL"
	TypeROnlyFile    = "RONLY_FILE"
	TypeRWFile       = "RW_FILE"
	TypeWOnlyFile    = "WONLY_FILE"
	TypeRFile        = "R_FILE"
	TypeWFile        = "W_FILE"
	TypeOpenFile     = "OPEN_FILE"
	TypeOpenFileNull = "OPEN_FILE_NULL"
	TypeOpenDir      = "OPEN_DIR_F"
	TypeOpenDirU     = "OPEN_DIR"
	TypeOpenDirNull  = "OPEN_DIR_NULL"
	TypeIntNeg       = "INT_NEG"
	TypeIntZero      = "INT_ZERO"
	TypeIntPos       = "INT_POS"
	TypeIntNegative  = "INT_NEGATIVE"
	TypeIntPositive  = "INT_POSITIVE"
	TypeIntNonNeg    = "INT_NONNEG"
	TypeIntNonPos    = "INT_NONPOS"
	TypeIntAny       = "INT_ANY"
	TypeFuncPtr      = "FUNC_PTR"
	TypeFuncPtrU     = "VALID_FUNC"
	TypeFdOpen       = "FD_OPEN"
	TypeFdBad        = "FD_BAD"
	TypeFdValid      = "FD_VALID"
	TypeFdAny        = "FD_ANY"
	TypeDouble       = "DBL"
	TypeDoubleAny    = "DBL_ANY"
)

// Bases of the parameterized type names base[s].
const (
	baseROnlyFixed   = "RONLY_FIXED"
	baseRWFixed      = "RW_FIXED"
	baseWOnlyFixed   = "WONLY_FIXED"
	baseRArray       = "R_ARRAY"
	baseRWArray      = "RW_ARRAY"
	baseWArray       = "W_ARRAY"
	baseRArrayNull   = "R_ARRAY_NULL"
	baseRWArrayNull  = "RW_ARRAY_NULL"
	baseWArrayNull   = "W_ARRAY_NULL"
	baseUnterminated = "UNTERM"
	baseCStringRW    = "CSTR_RW"
	baseCStringRO    = "CSTR_RONLY"
)

// sized names a parameterized type: base[s].
func sized(base string, s int) string { return base + "[" + strconv.Itoa(s) + "]" }

// digits is the length of the decimal rendering of s >= 0.
func digits(s int) int {
	n := 1
	for ; s >= 10; s /= 10 {
		n++
	}
	return n
}

// renderSized renders base[s] for every size and base, size-major, into
// one string and returns the names as substrings of it: a builder's
// parameterized names cost two allocations between them.
func renderSized(sizes []int, bases ...string) []string {
	n := 0
	for _, s := range sizes {
		for _, b := range bases {
			n += len(b) + 2 + digits(s)
		}
	}
	var sb strings.Builder
	sb.Grow(n)
	var buf [20]byte
	for _, s := range sizes {
		d := strconv.AppendInt(buf[:0], int64(s), 10)
		for _, b := range bases {
			sb.WriteString(b)
			sb.WriteByte('[')
			sb.Write(d)
			sb.WriteByte(']')
		}
	}
	all := sb.String()
	names := make([]string, 0, len(sizes)*len(bases))
	for _, s := range sizes {
		for _, b := range bases {
			k := len(b) + 2 + digits(s)
			names = append(names, all[:k])
			all = all[k:]
		}
	}
	return names
}

// lookupSized finds the type base[s] without allocating its name.
func (h *Hierarchy) lookupSized(base string, s int) (*Type, bool) {
	var buf [48]byte
	b := append(append(buf[:0], base...), '[')
	b = append(strconv.AppendInt(b, int64(s), 10), ']')
	t, ok := h.byName[string(b)]
	return t, ok
}

// Parameterized type name constructors.
func NameROnlyFixed(s int) string { return sized(baseROnlyFixed, s) }

// NameRWFixed names the read-write fixed-size fundamental type.
func NameRWFixed(s int) string { return sized(baseRWFixed, s) }

// NameWOnlyFixed names the write-only fixed-size fundamental type.
func NameWOnlyFixed(s int) string { return sized(baseWOnlyFixed, s) }

// NameRArray names the readable-array unified type of minimum size s.
func NameRArray(s int) string { return sized(baseRArray, s) }

// NameRWArray names the read-write-array unified type.
func NameRWArray(s int) string { return sized(baseRWArray, s) }

// NameWArray names the writable-array unified type.
func NameWArray(s int) string { return sized(baseWArray, s) }

// NameRArrayNull, NameRWArrayNull, NameWArrayNull name the unions with
// the NULL type.
func NameRArrayNull(s int) string { return sized(baseRArrayNull, s) }

// NameRWArrayNull names RW_ARRAY[s] ∪ {NULL}.
func NameRWArrayNull(s int) string { return sized(baseRWArrayNull, s) }

// NameWArrayNull names W_ARRAY[s] ∪ {NULL}.
func NameWArrayNull(s int) string { return sized(baseWArrayNull, s) }

// NameUnterminated names the fundamental type of readable regions of s
// bytes that contain no string terminator.
func NameUnterminated(s int) string { return sized(baseUnterminated, s) }

// NameCStringRW names the fundamental type of valid NUL-terminated
// strings of content length l in writable memory.
func NameCStringRW(l int) string { return sized(baseCStringRW, l) }

// NameCStringRO names valid strings of content length l in read-only
// memory.
func NameCStringRO(l int) string { return sized(baseCStringRO, l) }

// normSizes returns the non-negative sizes sorted and deduplicated,
// with 0 always present.
func normSizes(sizes []int) []int {
	out := make([]int, 1, len(sizes)+1) // out[0] == 0
	for _, s := range sizes {
		if s > 0 {
			out = append(out, s)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// BuildArrayHierarchy instantiates the Figure 3 hierarchy over the
// given sizes (0 is always included). The returned hierarchy is
// finalized.
func BuildArrayHierarchy(sizes []int) *Hierarchy {
	h := NewHierarchy()
	AddArrayTypes(h, sizes)
	if err := h.Finalize(); err != nil {
		panic(err) // construction is deterministic; failure is a bug
	}
	return h
}

// arrayRow is one Figure 3 row in declaration order: the three
// fundamentals of exactly size s, then the unified arrays of at least
// s and their NULL unions.
var arrayRow = [...]string{
	baseROnlyFixed, baseRWFixed, baseWOnlyFixed,
	baseRArray, baseRWArray, baseWArray,
	baseRArrayNull, baseRWArrayNull, baseWArrayNull,
}

// AddArrayTypes adds the Figure 3 nodes and edges to an existing
// hierarchy (callers combine them with file/dir/string nodes).
func AddArrayTypes(h *Hierarchy, sizes []int) {
	ss := normSizes(sizes)
	h.arraySizes = normSizes(append(h.arraySizes, ss...))
	h.reserve(3+len(arrayRow)*len(ss), 2+3*len(ss))
	null := h.Fundamental(TypeNull)
	invalid := h.Fundamental(TypeInvalid)
	top := h.Unified(TypeUnconstrained)
	h.Edge(invalid, top)

	type row struct {
		ro, rw, wo           *Type // fundamentals at exactly this size
		r, rwU, w            *Type // unified arrays of at least this size
		rNull, rwNull, wNull *Type
	}
	names := renderSized(ss, arrayRow[:]...)
	rows := make([]row, len(ss))
	for i := range rows {
		n := names[i*len(arrayRow):]
		rows[i] = row{
			ro:     h.Fundamental(n[0]),
			rw:     h.Fundamental(n[1]),
			wo:     h.Fundamental(n[2]),
			r:      h.Unified(n[3]),
			rwU:    h.Unified(n[4]),
			w:      h.Unified(n[5]),
			rNull:  h.Unified(n[6]),
			rwNull: h.Unified(n[7]),
			wNull:  h.Unified(n[8]),
		}
	}
	for i, rw := range rows {
		// Fundamentals of exactly size s sit under the arrays of at
		// least size s.
		h.Edge(rw.ro, rw.r)
		h.Edge(rw.rw, rw.rwU)
		h.Edge(rw.wo, rw.w)
		// Read-write arrays are both readable and writable arrays.
		h.Edge(rw.rwU, rw.r)
		h.Edge(rw.rwU, rw.w)
		// NULL unions.
		h.Edge(rw.r, rw.rNull)
		h.Edge(rw.rwU, rw.rwNull)
		h.Edge(rw.w, rw.wNull)
		h.Edge(rw.rwNull, rw.rNull)
		h.Edge(rw.rwNull, rw.wNull)
		// Size chains: an array of at least s_{i} is also an array of
		// at least s_{i-1}.
		if i > 0 {
			h.Edge(rw.r, rows[i-1].r)
			h.Edge(rw.rwU, rows[i-1].rwU)
			h.Edge(rw.w, rows[i-1].w)
			h.Edge(rw.rNull, rows[i-1].rNull)
			h.Edge(rw.rwNull, rows[i-1].rwNull)
			h.Edge(rw.wNull, rows[i-1].wNull)
		}
	}
	// NULL belongs to every *_NULL type; the chain edges propagate it
	// downward from the largest size.
	last := rows[len(rows)-1]
	h.Edge(null, last.rNull)
	h.Edge(null, last.rwNull)
	h.Edge(null, last.wNull)
	// The weakest array types flow into UNCONSTRAINED.
	h.Edge(rows[0].rNull, top)
	h.Edge(rows[0].wNull, top)
}

// AddFileTypes adds the Figure 4 file-pointer hierarchy on top of the
// array types (which must already include sizeofFILE among the sizes).
// Per the paper, the value set of RW_FIXED[sizeofFILE] is restricted to
// exclude open FILE structures so the fundamental value sets stay
// disjoint.
func AddFileTypes(h *Hierarchy, sizeofFILE int) {
	ro := h.Fundamental(TypeROnlyFile)
	rw := h.Fundamental(TypeRWFile)
	wo := h.Fundamental(TypeWOnlyFile)
	rFile := h.Unified(TypeRFile)
	wFile := h.Unified(TypeWFile)
	open := h.Unified(TypeOpenFile)
	openNull := h.Unified(TypeOpenFileNull)

	h.Edge(ro, rFile)
	h.Edge(rw, rFile)
	h.Edge(rw, wFile)
	h.Edge(wo, wFile)
	h.Edge(rFile, open)
	h.Edge(wFile, open)
	h.Edge(open, openNull)
	null := h.Fundamental(TypeNull)
	h.Edge(null, openNull)

	if rwArr, ok := h.lookupSized(baseRWArray, sizeofFILE); ok {
		h.Edge(open, rwArr)
	}
	if rwArrNull, ok := h.lookupSized(baseRWArrayNull, sizeofFILE); ok {
		h.Edge(openNull, rwArrNull)
	}
}

// AddDirTypes adds the directory-stream types, shaped like the file
// hierarchy but with a single access mode (POSIX offers no checker for
// DIR*, which is exactly why the wrapper needs manual state tracking).
func AddDirTypes(h *Hierarchy, sizeofDIR int) {
	f := h.Fundamental(TypeOpenDir)
	u := h.Unified(TypeOpenDirU)
	un := h.Unified(TypeOpenDirNull)
	h.Edge(f, u)
	h.Edge(u, un)
	null := h.Fundamental(TypeNull)
	h.Edge(null, un)
	if rwArr, ok := h.lookupSized(baseRWArray, sizeofDIR); ok {
		h.Edge(u, rwArr)
	}
	if rwArrNull, ok := h.lookupSized(baseRWArrayNull, sizeofDIR); ok {
		h.Edge(un, rwArrNull)
	}
}

// AddCStringTypes adds NUL-terminated string types on top of the array
// types. Fundamentals: CSTR_RONLY[l] / CSTR_RW[l] (valid strings of
// content length l in read-only / writable memory) and UNTERM[s]
// (readable region of s bytes without a terminator). Unified: CSTR
// (any valid string), W_CSTR (writable string — what strtok really
// needs), and their NULL unions. A string of length l occupies l+1
// readable (and, for CSTR_RW, writable) bytes, so each length
// fundamental also flows into the largest array type it fills; the
// semantic order then makes W_CSTR a subtype of the writable arrays
// automatically.
func AddCStringTypes(h *Hierarchy, untermSizes, strLens []int) {
	// The distinct lengths in first-seen order, and the unterminated
	// sizes normalised.
	lens := make([]int, 0, len(strLens))
	for _, l := range strLens {
		if l >= 0 && !slices.Contains(lens, l) {
			lens = append(lens, l)
		}
	}
	us := normSizes(untermSizes)
	h.reserve(5+2*len(lens)+len(us), 1+2*len(lens)+len(us))
	cstr := h.Unified(TypeCString)
	wstr := h.Unified(TypeCStringW)
	cn := h.Unified(TypeCStringNull)
	wn := h.Unified(TypeCStringWNull)
	null := h.Fundamental(TypeNull)

	h.Edge(wstr, cstr)
	h.Edge(cstr, cn)
	h.Edge(wstr, wn)
	h.Edge(wn, cn)
	h.Edge(null, cn)
	h.Edge(null, wn)
	if rn, ok := h.lookupSized(baseRArrayNull, 0); ok {
		h.Edge(cn, rn)
	}

	// arrayFloor finds the largest array-size row s with s <= n.
	arrayFloor := func(n int) (int, bool) {
		i, _ := slices.BinarySearch(h.arraySizes, n+1) // first size > n
		if i == 0 {
			return 0, false
		}
		return h.arraySizes[i-1], true
	}

	names := renderSized(lens, baseCStringRO, baseCStringRW)
	for i, l := range lens {
		ro := h.Fundamental(names[2*i])
		rw := h.Fundamental(names[2*i+1])
		h.Edge(ro, cstr)
		h.Edge(rw, wstr)
		if s, ok := arrayFloor(l + 1); ok {
			if r, ok := h.lookupSized(baseRArray, s); ok {
				h.Edge(ro, r)
			}
			if rwArr, ok := h.lookupSized(baseRWArray, s); ok {
				h.Edge(rw, rwArr)
			}
		}
	}
	for i, name := range renderSized(us, baseUnterminated) {
		ut := h.Fundamental(name)
		if r, ok := h.lookupSized(baseRArray, us[i]); ok {
			h.Edge(ut, r)
		}
	}
}

// BuildIntHierarchy builds the integer hierarchy of the paper's
// §4.2 example: disjoint fundamentals NEG/ZERO/POS under the
// overlapping unified types NONNEG and NONPOS.
func BuildIntHierarchy() *Hierarchy {
	h := NewHierarchy()
	AddIntTypes(h)
	if err := h.Finalize(); err != nil {
		panic(err)
	}
	return h
}

// AddIntTypes adds the integer nodes to a hierarchy.
func AddIntTypes(h *Hierarchy) {
	neg := h.Fundamental(TypeIntNeg)
	zero := h.Fundamental(TypeIntZero)
	pos := h.Fundamental(TypeIntPos)
	negU := h.Unified(TypeIntNegative)
	posU := h.Unified(TypeIntPositive)
	nonneg := h.Unified(TypeIntNonNeg)
	nonpos := h.Unified(TypeIntNonPos)
	any := h.Unified(TypeIntAny)
	h.Edge(neg, negU)
	h.Edge(pos, posU)
	h.Edge(negU, nonpos)
	h.Edge(zero, nonpos)
	h.Edge(zero, nonneg)
	h.Edge(posU, nonneg)
	h.Edge(nonpos, any)
	h.Edge(nonneg, any)
}

// AddFdTypes adds the file-descriptor hierarchy: a genuinely open
// descriptor under FD_VALID, arbitrary numbers alongside it under the
// FD_ANY top. Descriptors cannot cause memory faults, which is why
// the hierarchy is this shallow.
func AddFdTypes(h *Hierarchy) {
	open := h.Fundamental(TypeFdOpen)
	bad := h.Fundamental(TypeFdBad)
	valid := h.Unified(TypeFdValid)
	top := h.Unified(TypeFdAny)
	h.Edge(open, valid)
	h.Edge(valid, top)
	h.Edge(bad, top)
}

// AddDoubleTypes adds the (trivial) floating-point hierarchy: every
// double belongs to DBL_ANY.
func AddDoubleTypes(h *Hierarchy) {
	d := h.Fundamental(TypeDouble)
	top := h.Unified(TypeDoubleAny)
	h.Edge(d, top)
}

// AddFuncPtrTypes adds function pointer types: a registered code
// address versus everything else.
func AddFuncPtrTypes(h *Hierarchy) {
	f := h.Fundamental(TypeFuncPtr)
	u := h.Unified(TypeFuncPtrU)
	h.Edge(f, u)
	if top, ok := h.Lookup(TypeUnconstrained); ok {
		h.Edge(u, top)
	}
}

package decl

import (
	"sort"
	"strings"
)

// Family groups robust-type bases by the check that validates them.
type Family uint8

// Robust-type families. The zero family accepts every value; unknown
// bases decode to it, so a checker fails open (the wrapper must never
// make a function less available than the safe-by-default stance).
const (
	FamilyUnconstrained Family = iota
	FamilyArray                // R/W/RW_ARRAY[_NULL][n]: an accessible region
	FamilyBounded              // R_BOUNDED[n]: readable to a NUL or n bytes
	FamilyCString              // [W_]CSTR[_NULL]: a NUL-terminated string
	FamilyFILE                 // OPEN_FILE[_NULL], R_FILE, W_FILE: an open stream
	FamilyDIR                  // OPEN_DIR[_NULL]: a directory stream
	FamilyInt                  // INT_*: an integer of the allowed signs
	FamilyFD                   // FD_VALID: an open file descriptor
	FamilyFunc                 // VALID_FUNC: a function address
)

// Signs is a set of integer signs.
type Signs uint8

// The sign classes of an integer value.
const (
	SignNeg Signs = 1 << iota
	SignZero
	SignPos
	SignsAll = SignNeg | SignZero | SignPos
)

// Allows reports whether v's sign is in the set.
func (s Signs) Allows(v int64) bool {
	switch {
	case v < 0:
		return s&SignNeg != 0
	case v == 0:
		return s&SignZero != 0
	}
	return s&SignPos != 0
}

// Clamp returns the value heal mode substitutes for one outside the
// set: zero when allowed, else the allowed unit.
func (s Signs) Clamp() int64 {
	switch {
	case s&SignZero != 0:
		return 0
	case s&SignPos != 0:
		return 1
	}
	return -1
}

// Reason names the values outside the set, as a failed check reports
// them.
func (s Signs) Reason() string { return signReasons[s] }

var signReasons = [...]string{
	SignPos:            "non-positive value",
	SignZero | SignPos: "negative value",
	SignNeg | SignZero: "positive value",
	SignNeg:            "non-negative value",
	SignsAll:           "",
}

// Kind is a robust-type base decoded once: everything the wrapper,
// the wrapper generator and the injector need to know about a base
// name, so none of them interprets the name itself.
type Kind struct {
	Family Family
	// NullOK admits NULL into a pointer family.
	NullOK bool
	// Read and Write are the access the pointee must allow: region
	// permissions for arrays, strings and DIR streams, the stream's
	// open mode for FILE (neither means any open stream).
	Read, Write bool
	// Signs are the values an INT_* type admits.
	Signs Signs
	// NullReason is why a NULL is rejected. It is set exactly for the
	// pointer families, which rule on NULL before anything else.
	NullReason string
}

// kinds is the robust-type vocabulary: every base a declaration can
// name.
var kinds = map[string]Kind{
	"UNCONSTRAINED": {},
	"FD_ANY":        {},
	"DBL_ANY":       {},

	"R_ARRAY":       {Family: FamilyArray, Read: true, NullReason: "null pointer"},
	"W_ARRAY":       {Family: FamilyArray, Write: true, NullReason: "null pointer"},
	"RW_ARRAY":      {Family: FamilyArray, Read: true, Write: true, NullReason: "null pointer"},
	"R_ARRAY_NULL":  {Family: FamilyArray, NullOK: true, Read: true, NullReason: "null pointer"},
	"W_ARRAY_NULL":  {Family: FamilyArray, NullOK: true, Write: true, NullReason: "null pointer"},
	"RW_ARRAY_NULL": {Family: FamilyArray, NullOK: true, Read: true, Write: true, NullReason: "null pointer"},
	"R_BOUNDED":     {Family: FamilyBounded, Read: true, NullReason: "null pointer"},

	"CSTR":        {Family: FamilyCString, Read: true, NullReason: "null string"},
	"W_CSTR":      {Family: FamilyCString, Read: true, Write: true, NullReason: "null string"},
	"CSTR_NULL":   {Family: FamilyCString, NullOK: true, Read: true, NullReason: "null string"},
	"W_CSTR_NULL": {Family: FamilyCString, NullOK: true, Read: true, Write: true, NullReason: "null string"},

	"OPEN_FILE":      {Family: FamilyFILE, NullReason: "null FILE pointer"},
	"OPEN_FILE_NULL": {Family: FamilyFILE, NullOK: true, NullReason: "null FILE pointer"},
	"R_FILE":         {Family: FamilyFILE, Read: true, NullReason: "null FILE pointer"},
	"W_FILE":         {Family: FamilyFILE, Write: true, NullReason: "null FILE pointer"},

	"OPEN_DIR":      {Family: FamilyDIR, Read: true, Write: true, NullReason: "null DIR pointer"},
	"OPEN_DIR_NULL": {Family: FamilyDIR, NullOK: true, Read: true, Write: true, NullReason: "null DIR pointer"},

	"INT_ANY":      {Family: FamilyInt, Signs: SignsAll},
	"INT_POSITIVE": {Family: FamilyInt, Signs: SignPos},
	"INT_NONNEG":   {Family: FamilyInt, Signs: SignZero | SignPos},
	"INT_NONPOS":   {Family: FamilyInt, Signs: SignNeg | SignZero},
	"INT_NEGATIVE": {Family: FamilyInt, Signs: SignNeg},

	"FD_VALID":   {Family: FamilyFD},
	"VALID_FUNC": {Family: FamilyFunc},
}

// OpenFILE is the plain open-stream kind that FILE integrity checks
// and substituted streams are validated against.
var OpenFILE = kinds["OPEN_FILE"]

// Kind decodes the base. Unknown bases decode to the unconstrained
// zero Kind.
func (r RobustType) Kind() Kind { return kinds[r.Base] }

// Bases lists every base of the vocabulary, sorted.
func Bases() []string {
	out := make([]string, 0, len(kinds))
	for b := range kinds {
		out = append(out, b)
	}
	sort.Strings(out)
	return out
}

// RepairFamily is the family heal mode repairs the argument as. The
// runtime wrapper and the generated C both dispatch on it, so the two
// heal paths cannot disagree. An array typed as a stream handle cannot
// be replaced by raw sink bytes (the library would dereference zeros),
// so it is repaired as the stream it points to.
func (a ArgDecl) RepairFamily() Family {
	f := a.Robust.Kind().Family
	if f == FamilyArray {
		switch {
		case a.PointsToFILE():
			return FamilyFILE
		case a.PointsToDIR():
			return FamilyDIR
		}
	}
	return f
}

// PointsToFILE reports whether the argument's C type is a stream
// handle (FILE*, struct _IO_FILE*).
func (a ArgDecl) PointsToFILE() bool { return strings.Contains(a.CType, "FILE") }

// PointsToDIR reports whether the argument's C type is a directory
// stream handle (DIR*, struct __dirstream*).
func (a ArgDecl) PointsToDIR() bool {
	return strings.Contains(a.CType, "__dirstream") || strings.Contains(a.CType, "DIR")
}

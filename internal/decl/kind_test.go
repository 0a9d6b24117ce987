package decl

import (
	"testing"

	"healers/internal/typesys"
)

// TestKindCoversSelectableTypes checks that every unified type the
// type system can select as a robust type, plus the R_BOUNDED upgrade
// the injector makes, has a kind entry, and that Parameterized keeps
// its answer for each.
func TestKindCoversSelectableTypes(t *testing.T) {
	h := typesys.NewHierarchy()
	typesys.AddArrayTypes(h, []int{0, 8, 44})
	typesys.AddCStringTypes(h, []int{16}, []int{0, 5})
	typesys.AddFileTypes(h, 8)
	typesys.AddDirTypes(h, 8)
	typesys.AddIntTypes(h)
	typesys.AddFdTypes(h)
	typesys.AddDoubleTypes(h)
	typesys.AddFuncPtrTypes(h)
	names := []string{"R_BOUNDED[8]"}
	for _, ty := range h.Types() {
		if !ty.Fundamental() {
			names = append(names, ty.Name())
		}
	}
	parameterized := map[string]bool{
		"R_ARRAY": true, "RW_ARRAY": true, "W_ARRAY": true,
		"R_ARRAY_NULL": true, "RW_ARRAY_NULL": true, "W_ARRAY_NULL": true,
		"R_BOUNDED": true,
	}
	seen := map[string]bool{}
	for _, name := range names {
		rt, err := ParseRobustType(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		seen[rt.Base] = true
		if _, ok := kinds[rt.Base]; !ok {
			t.Errorf("selectable type %s has no kind entry", name)
		}
		if got := rt.Parameterized(); got != parameterized[rt.Base] {
			t.Errorf("%s: Parameterized() = %v, want %v", name, got, parameterized[rt.Base])
		}
	}
	// The table names nothing the type system cannot select.
	for _, b := range Bases() {
		if !seen[b] {
			t.Errorf("kind table entry %s is not a selectable type", b)
		}
	}
}

// TestKindTableShape pins the invariants consumers rely on: pointer
// families (and only they) carry a NULL reason, only integers carry
// signs, and an unknown base fails open.
func TestKindTableShape(t *testing.T) {
	for _, b := range Bases() {
		k := RobustType{Base: b}.Kind()
		pointer := k.Family == FamilyArray || k.Family == FamilyBounded ||
			k.Family == FamilyCString || k.Family == FamilyFILE || k.Family == FamilyDIR
		if pointer != (k.NullReason != "") {
			t.Errorf("%s: NullReason %q for family %d", b, k.NullReason, k.Family)
		}
		if (k.Family == FamilyInt) != (k.Signs != 0) {
			t.Errorf("%s: signs %03b for family %d", b, k.Signs, k.Family)
		}
		if k.Family == FamilyArray && !k.Read && !k.Write {
			t.Errorf("%s: array requires no access", b)
		}
	}
	if k := (RobustType{Base: "NO_SUCH_TYPE"}).Kind(); k != (Kind{}) {
		t.Errorf("unknown base decodes to %+v, want the unconstrained zero Kind", k)
	}
}

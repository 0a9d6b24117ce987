package decl

// ApplySemiAutoEdits returns a copy of the declaration set with the
// paper's §6 manual edits applied: executable assertions that track
// directory structures statefully and validate the integrity of FILE
// structures beyond the automatic fileno+fstat check. These are the
// edits that take the wrapper from "16 functions still crash" to "all
// crash failures eliminated" in Figure 6.
func ApplySemiAutoEdits(s *DeclSet) *DeclSet {
	c := s.Clone()
	for _, d := range c.ByName {
		if !d.Unsafe() {
			continue
		}
		var hasDir, hasFile bool
		for _, a := range d.Args {
			if a.PointsToDIR() {
				hasDir = true
			}
			if a.PointsToFILE() {
				hasFile = true
			}
		}
		if hasDir {
			d.Assertions = appendAssertion(d.Assertions, AssertValidDir)
		}
		if hasFile {
			d.Assertions = appendAssertion(d.Assertions, AssertFileIntegrity)
		}
	}
	return c
}

func appendAssertion(list []Assertion, a Assertion) []Assertion {
	for _, x := range list {
		if x == a {
			return list
		}
	}
	return append(list, a)
}

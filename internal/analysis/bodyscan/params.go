package bodyscan

import (
	"strings"

	"healers/internal/gens"
)

// protoParam is one parsed parameter of a C prototype string. Its
// class is gens.Classify's for the same parameter of the extracted
// prototype (TestClassMatchesGenerator), so the static probe schedule
// builds the same benign environment as the dynamic campaign.
type protoParam struct {
	Name  string
	CType string
	Class gens.Class
}

// parseProto extracts the parameter list from a prototype string such
// as "char *strtok(char *str, const char *delim);". The clib proto
// strings are regular enough that a token-level split suffices; the
// full header parser in internal/cparse is not needed here.
func parseProto(proto string) []protoParam {
	open := strings.IndexByte(proto, '(')
	close := strings.LastIndexByte(proto, ')')
	if open < 0 || close <= open {
		return nil
	}
	inner := proto[open+1 : close]
	if strings.TrimSpace(inner) == "" || strings.TrimSpace(inner) == "void" {
		return nil
	}
	var params []protoParam
	depth, start := 0, 0
	fields := func(s string) {
		s = strings.TrimSpace(s)
		if s == "" || s == "..." {
			return
		}
		params = append(params, protoParam{
			Name:  paramName(s, len(params)),
			CType: s,
			Class: classify(s),
		})
	}
	for i := 0; i < len(inner); i++ {
		switch inner[i] {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				fields(inner[start:i])
				start = i + 1
			}
		}
	}
	fields(inner[start:])
	return params
}

// paramName pulls the declared identifier out of one parameter
// declaration ("const char *delim" -> "delim").
func paramName(decl string, idx int) string {
	if i := strings.Index(decl, "(*"); i >= 0 {
		// Function pointer: the name sits inside (*name).
		rest := decl[i+2:]
		if j := strings.IndexByte(rest, ')'); j >= 0 {
			if n := strings.TrimSpace(rest[:j]); n != "" {
				return n
			}
		}
	}
	toks := strings.FieldsFunc(decl, func(r rune) bool {
		return r == ' ' || r == '*' || r == '[' || r == ']'
	})
	if len(toks) == 0 {
		return ""
	}
	last := toks[len(toks)-1]
	switch last {
	case "int", "char", "void", "long", "unsigned", "double", "float",
		"size_t", "time_t", "FILE", "DIR", "const", "struct":
		return "" // unnamed parameter
	}
	return last
}

// classify reads a parameter declaration's class off its spelling.
func classify(decl string) gens.Class {
	stars := strings.Count(decl, "*")
	switch {
	case strings.Contains(decl, "(*"):
		return gens.ClassFuncPtr
	case stars >= 2:
		return gens.ClassPtr // char **endptr and friends: generic pointer
	case stars == 1:
		switch {
		case strings.Contains(decl, "FILE"):
			return gens.ClassFile
		case strings.Contains(decl, "DIR"):
			return gens.ClassDir
		case strings.Contains(decl, "char") && strings.Contains(decl, "const"):
			return gens.ClassCString
		case strings.Contains(decl, "char"):
			return gens.ClassCharBuf
		default:
			return gens.ClassPtr
		}
	case strings.Contains(decl, "double") || strings.Contains(decl, "float"):
		return gens.ClassDouble
	default:
		if gens.IsFdParam(paramName(decl, 0)) {
			return gens.ClassFd
		}
		return gens.ClassInt
	}
}

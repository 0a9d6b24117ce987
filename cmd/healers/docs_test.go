package main

import (
	"go/build"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// docFiles are the documents whose command lines are checked against
// the code, relative to the repository root.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

var (
	goRunCmd   = regexp.MustCompile(`go run \./cmd/([\w-]+)`)
	healersCmd = regexp.MustCompile("(?:go run \\./cmd/healers|/tmp/healers)[ \t]+([^`#\n]*)")
	makeCmd    = regexp.MustCompile("`make ([\\w-]+)")
	makeTarget = regexp.MustCompile(`(?m)^([\w-]+):`)
)

// TestDocCommandsExist keeps the documented command lines runnable:
// every `go run ./cmd/<name>` names a main package, every backticked
// `make <target>` names a Makefile target, and every healers
// invocation names a known subcommand and only flags healers
// registers.
func TestDocCommandsExist(t *testing.T) {
	root := filepath.Join("..", "..")
	fs, _, _ := newFlagSet("doc")
	makefile, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeTarget.FindAllStringSubmatch(string(makefile), -1) {
		targets[m[1]] = true
	}
	for _, doc := range docFiles {
		data, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		for _, m := range goRunCmd.FindAllStringSubmatch(text, -1) {
			pkg, err := build.ImportDir(filepath.Join(root, "cmd", m[1]), 0)
			if err != nil || pkg.Name != "main" {
				t.Errorf("%s: %q names no main package", doc, m[0])
			}
		}
		for _, m := range makeCmd.FindAllStringSubmatch(text, -1) {
			if !targets[m[1]] {
				t.Errorf("%s: %q names no Makefile target", doc, m[0][1:])
			}
		}
		for _, loc := range healersCmd.FindAllStringSubmatchIndex(text, -1) {
			if strings.HasSuffix(text[:loc[0]], "-o ") {
				continue // the output path of a go build, not an invocation
			}
			m := []string{text[loc[0]:loc[1]], text[loc[2]:loc[3]]}
			args := shellWords(m[1])
			if len(args) == 0 {
				continue
			}
			for _, sub := range strings.Split(args[0], "|") {
				if !slices.Contains(commands, sub) {
					t.Errorf("%s: %q: unknown subcommand %q", doc, m[0], sub)
				}
			}
			for _, arg := range args[1:] {
				arg = strings.Trim(arg, "[]")
				if !strings.HasPrefix(arg, "-") {
					continue
				}
				name, _, _ := strings.Cut(strings.TrimLeft(arg, "-"), "=")
				if fs.Lookup(name) == nil {
					t.Errorf("%s: %q: healers has no flag -%s", doc, m[0], name)
				}
			}
		}
	}
}

// shellWords splits a documented command line into words, stopping at
// the first pipe, redirection, or command separator.
func shellWords(line string) []string {
	words := strings.Fields(line)
	for i, w := range words {
		if w == "|" || w == "&" || w == "&&" || w == ";" || strings.HasPrefix(w, ">") || strings.HasPrefix(w, "2>") {
			return words[:i]
		}
	}
	return words
}

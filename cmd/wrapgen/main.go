// Command wrapgen prints the generated robustness wrapper as C source
// (paper Figure 5) for the named functions, or for all 86 crash-prone
// functions by default. Pass -semi to include the manual-edit
// assertions of the semi-automatic wrapper.
package main

import (
	"flag"
	"fmt"
	"os"

	"healers"
	"healers/internal/wrapgen"
)

func main() {
	semi := flag.Bool("semi", false, "apply the §6 semi-automatic manual edits")
	abort := flag.Bool("abort", false, "emit the debugging-phase abort policy")
	flag.Parse()

	sys, err := healers.NewSystem()
	if err != nil {
		fmt.Fprintln(os.Stderr, "wrapgen:", err)
		os.Exit(1)
	}
	names := flag.Args()
	if len(names) == 0 {
		names = sys.CrashProne86()
	}
	campaign, err := sys.Inject(names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wrapgen:", err)
		os.Exit(1)
	}
	decls := campaign.Decls()
	if *semi {
		decls = healers.SemiAuto(decls)
	}
	fmt.Print(wrapgen.File(decls, wrapgen.Options{AbortOnViolation: *abort}))
}

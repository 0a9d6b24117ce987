// Wrapper life-cycle policies (paper §2).
//
// The wrapper generator can produce different wrappers for different
// phases of an application's life: a debugging wrapper that aborts on
// the first invalid input (so the fault is caught at its source), a
// deployed wrapper that keeps the application running while logging
// violations for later diagnosis, and a minimal wrapper covering only
// the functions a security-sensitive process cares about.
package main

import (
	"bytes"
	"fmt"
	"log"

	"healers"
	"healers/internal/csim"
	"healers/internal/obs"
	"healers/internal/wrapper"
)

func main() {
	sys, err := healers.NewSystem()
	if err != nil {
		log.Fatal(err)
	}
	campaign, err := sys.Inject([]string{"strcpy", "strlen", "asctime"})
	if err != nil {
		log.Fatal(err)
	}
	decls := campaign.Decls()

	// 1. Debugging phase: abort at the violation.
	p1 := sys.NewProcess(nil)
	debug := sys.WrapWith(p1, decls, healers.WrapperOptions{Policy: wrapper.PolicyAbort})
	out := p1.Run(func() uint64 { return debug.Call(p1, "strlen", 0) })
	fmt.Printf("debugging wrapper: strlen(NULL) -> %v (caught at the source)\n", out)

	// 2. Deployed phase: return an error, log the violation. The log is
	// the tracer's check-violation stream, rendered one line per event.
	var violations bytes.Buffer
	p2 := sys.NewProcess(nil)
	deployed := sys.WrapWith(p2, decls, healers.WrapperOptions{
		Policy: wrapper.PolicyReturnError,
		Obs:    healers.NewTracer(obs.NewTextSink(&violations)),
	})
	p2.ClearErrno()
	out = p2.Run(func() uint64 { return deployed.Call(p2, "strlen", 0) })
	fmt.Printf("deployed wrapper:  strlen(NULL) -> %v, errno=%s\n",
		out, csim.ErrnoName(p2.Errno()))
	fmt.Printf("violation log:     %s", violations.String())

	// 3. Minimal wrapper: only strcpy is protected; everything else
	// runs at full speed (and full fragility).
	p3 := sys.NewProcess(nil)
	minimal := sys.WrapWith(p3, decls, healers.WrapperOptions{
		Policy: wrapper.PolicyReturnError,
		Only:   map[string]bool{"strcpy": true},
	})
	p3.ClearErrno()
	out = p3.Run(func() uint64 { return minimal.Call(p3, "strcpy", 0, 0) })
	fmt.Printf("minimal wrapper:   strcpy(NULL, NULL) -> %v (checked)\n", out)
	out = p3.Run(func() uint64 { return minimal.Call(p3, "strlen", 0) })
	fmt.Printf("minimal wrapper:   strlen(NULL)       -> %v (passed through)\n", out)

	// 4. The §7 improvement: caching pointer validation.
	p4 := sys.NewProcess(nil)
	cached := sys.WrapWith(p4, decls, healers.WrapperOptions{
		Policy:      wrapper.PolicyReturnError,
		CacheChecks: true,
	})
	tm := cached.Call(p4, "malloc", 64)
	for i := 0; i < 3; i++ {
		p4.Run(func() uint64 { return cached.Call(p4, "asctime", tm) })
	}
	fmt.Printf("caching wrapper:   3 calls, %d checks executed (cache hits skip re-validation)\n",
		cached.Stats().ChecksRun)
}

# Build and verification tiers for the HEALERS reproduction.
#
#   make check         — tier 1: what every change must keep green
#   make race          — tier 2: vet + the race detector over the full suite
#   make race-parallel — the parallel-campaign concurrency audit under -race
#   make serve-test    — the campaign-service e2e/soak layer under -race
#   make lint          — gofmt diff + go vet + the repo AST lint
#   make soundness     — the static↔dynamic gate: body facts never
#                        stronger than the measured robust types
#   make inline-check  — fail if a per-byte csim accessor or a cmem
#                        page-walk helper stops inlining
#   make bodyfacts     — regenerate internal/analysis/bodyfacts from clib
#   make bodyfacts-check — fail if the committed body facts have drifted
#   make cover         — coverage with a failing floor at COVER_BASELINE
#   make strategy-matrix — the differential strategy harness: all three
#                        wrapper modes + unwrapped over the identical
#                        suite, golden-checked and mode-invariant-checked
#                        under the race detector
#   make verify        — all tiers (the pre-commit gate)
#   make bench         — wrapper call-path overhead benchmarks
#   make bench-smoke   — one-iteration benchmarks (incl. the scaling
#                        and byte-kernel ratio gates), allocation
#                        contracts (a zero-allocation Ballista test
#                        among them) + COW differential audit
#   make bench-module  — vet + smoke-test the nested bench/ module, which
#                        the root `go test ./...` does not compile
#   make fuzz          — 30s each of prototype-parser, cache-line,
#                        heal-string and byte-kernel fuzzing beyond the
#                        checked-in corpora
#   make test-e2e-crash — the Jepsen-style crash harness over real
#                        child processes: blackbox SIGKILL/restart
#                        loop, whitebox killpoint sweep, stress mode
#   make table1 / figure6 / stats — run the paper's evaluations

GO ?= go

# Total statement coverage must not fall below this floor (measured
# 79.4% when the floor was last raised; the margin absorbs counting
# noise, not untested subsystems).
COVER_BASELINE ?= 79.2

.PHONY: all check race race-parallel serve-test lint soundness inline-check bodyfacts bodyfacts-check cover strategy-matrix verify bench bench-profile bench-smoke bench-module fuzz test-e2e-crash table1 figure6 stats analyze clean

all: check

check:
	$(GO) build ./...
	$(GO) test ./...

race:
	$(GO) vet ./...
	$(GO) test -race ./...

race-parallel:
	$(GO) test -race -count=1 -run 'TestParallel|TestResultCache' ./internal/injector/ ./internal/ballista/

# The campaign-service soak: HTTP e2e (86-function campaign over the
# wire, vectors byte-compared to the golden file), concurrent-client
# dedup, warm-restart from the persistent cache, and the single-flight
# audit — all under the race detector.
serve-test:
	$(GO) test -race -count=1 ./internal/serve/
	$(GO) test -race -count=1 -run 'TestFlight|TestDiskCache|TestConcurrentCampaigns|TestCacheStats|TestResultCache' ./internal/injector/

lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; \
		gofmt -d $$unformatted; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) run ./cmd/bodyscan -lint

# The soundness gate of the body-level static pass: every predicted
# robust type must be no stronger than the dynamically measured one
# (zero "wrong" rows across the 86), the body-seeded campaign must
# reproduce the cold campaign's vectors byte-for-byte, and the
# committed facts must regenerate as a no-op. It also runs what the
# pass rests on: the memory recorder reports exactly what every
# address-taking csim accessor touches and belongs to one address
# space, the shared size fitter, parameter classes that match
# gens.Classify, and Classify's pinned generator selection.
soundness:
	$(GO) test -count=1 -run 'TestBodySoundness|TestBodyVectorsIdentical|TestBodySeedingBeatsPrototype|TestFootprintOracle|TestRecorderNotInherited|TestFitSize|TestClassMatchesGenerator|TestClassifyPinsSelection' ./internal/analysis/ ./internal/analysis/bodyscan/ ./internal/csim/ ./internal/decl/ ./internal/gens/
	$(GO) run ./cmd/bodyscan -check

# The structural property behind "no recorder, no cost": the memory
# recorder's nil check sits in cmem's non-inlined accessors, so every
# per-byte csim accessor stays inlinable. A hook placed inside them
# pushes their inlining cost (75-80 today) past the budget of 80.
INLINE_ACCESSORS = Load Store LoadInto LoadByte StoreByte LoadU32 LoadU64 LoadCString
# cmem's page walk: these Memory methods and isZero inline into lookup
# and ensureOwned, so a page-cache hit or a probe of the delta and the
# frozen base costs no call.
INLINE_PAGEWALK = walk slot cached install

inline-check:
	@out=$$($(GO) build -gcflags=-m ./internal/csim 2>&1) || { echo "$$out"; exit 1; }; \
	mout=$$($(GO) build -gcflags=-m ./internal/cmem 2>&1) || { echo "$$mout"; exit 1; }; \
	fail=0; \
	for f in $(INLINE_ACCESSORS); do \
		echo "$$out" | grep -qE "can inline \(\*Process\)\.$$f$$" || \
			{ echo "FAIL: (*csim.Process).$$f is no longer inlinable"; fail=1; }; \
	done; \
	for f in $(INLINE_PAGEWALK); do \
		echo "$$mout" | grep -qE "can inline \(\*Memory\)\.$$f$$" || \
			{ echo "FAIL: (*cmem.Memory).$$f is no longer inlinable"; fail=1; }; \
	done; \
	echo "$$mout" | grep -qE "can inline isZero$$" || \
		{ echo "FAIL: cmem.isZero is no longer inlinable"; fail=1; }; \
	[ $$fail -eq 0 ] && echo "inline-check: all $(words $(INLINE_ACCESSORS)) csim accessors and $(words $(INLINE_PAGEWALK) isZero) cmem page-walk helpers inlinable"

bodyfacts:
	$(GO) run ./cmd/bodyscan -out internal/analysis/bodyfacts/facts.go

bodyfacts-check:
	$(GO) run ./cmd/bodyscan -check

cover:
	$(GO) test -count=1 -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | tail -1 | sed 's/.*[[:space:]]//; s/%//'); \
	echo "total coverage: $$total% (baseline $(COVER_BASELINE)%)"; \
	awk -v t="$$total" -v b="$(COVER_BASELINE)" 'BEGIN { exit (t+0 < b+0) ? 1 : 0 }' || \
		{ echo "FAIL: coverage $$total% is below the $(COVER_BASELINE)% baseline"; exit 1; }

# The differential strategy harness: unwrapped + reject + heal +
# introspect over the identical 11,995-test suite, byte-compared to the
# committed golden matrix, the three mode invariants checked, and the
# sharded run byte-compared to the sequential one — all under the race
# detector.
strategy-matrix:
	$(GO) test -race -count=1 -run 'TestStrategyMatrix' -v ./

verify: check race serve-test lint cover strategy-matrix test-e2e-crash

bench:
	$(GO) test -run '^$$' -bench BenchmarkWrapperCallOverhead -benchmem ./internal/wrapper/

# Contention capture for the multicore work: run the 8-worker golden
# campaign with the cpu, mutex, and block profilers armed, leaving
# pprof files plus the test binary (symbol source) in ./profiles.
# Inspect with: go tool pprof profiles/injector.test profiles/mutex.pprof
bench-profile:
	mkdir -p profiles
	$(GO) test -count=1 -run 'TestParallelVectorsMatchGolden' \
		-cpuprofile profiles/cpu.pprof \
		-mutexprofile profiles/mutex.pprof \
		-blockprofile profiles/block.pprof \
		-o profiles/injector.test \
		./internal/injector/
	@echo "wrote profiles/{cpu,mutex,block}.pprof — go tool pprof profiles/injector.test profiles/<which>.pprof"

# CI's cheap perf gate: every campaign benchmark, the page-cache byte
# scan and the bulk stdio paths run one iteration (so a hang or a
# golden-vector divergence fails fast), BenchmarkCampaignScaling (on 4+
# procs) holds the 8-worker wall at or below 0.50x the sequential,
# BenchmarkByteKernels holds a 16 KiB memcpy and memset at or below
# 0.25x their per-byte reference, the wrapper nop path, the
# forked-memory accessors, the per-test Ballista budget, an unwrapped
# Ballista test of strcpy, memcpy or fgets (zero, faults included), the
# stdio loops, the byte kernels (16 KiB across pages in a fork), hierarchy
# construction and a whole cold campaign and one fixture experiment
# prove their allocation contracts
# (the campaign its byte budget too), heal's sink repairs take at most
# one pool page each, and the COW and page-cache differentials +
# aliasing + purity + zero-page audits and the file copy-on-write,
# shared-fixture and file-recycling oracle audits run under the race
# detector.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkCampaign|BenchmarkFork|BenchmarkByteScanForked|BenchmarkBuildArrayHierarchy|BenchmarkRobustType|BenchmarkStdio|BenchmarkByteKernels' -benchtime 1x ./internal/injector/ ./internal/cmem/ ./internal/typesys/ ./internal/clib/
	$(GO) test -count=1 -run 'TestNopObservabilityAddsNoAllocations|TestForkedAccessorsAllocateNothing|TestPerTestAllocationBudget|TestBallistaUnwrappedTestAllocatesNothing|TestKernelAllocations|TestStdioAllocations|TestByteKernelAllocations|TestCampaignAllocationBudget|TestFixtureExperimentAllocations|TestSinkRepairsTakeOnePage' ./internal/wrapper/ ./internal/cmem/ ./internal/ballista/ ./internal/typesys/ ./internal/clib/ ./internal/injector/
	$(GO) test -race -count=1 -run 'TestDifferentialCOWvsEager|TestPageCacheDifferential|TestReleasedMemoryFaultsThroughCache|TestConcurrentTemplateForks|TestReadPathsLeaveSnapshotFrozen|TestFork|TestForkOfUnwrittenForkReleaseOrders|TestProtectAfterFork|TestWriteOnlyPagesSurviveFork|TestChildFree|TestMapResetAfterFork|TestRelease|TestSharedPageRelease|TestZeroPages' ./internal/cmem/
	$(GO) test -race -count=1 -run 'TestFileWritesCopyOnWrite|TestConcurrentTemplateForksShareFS|TestSharedFixtureTemplate|TestFileCOWOracle|TestRecycledFilesStayPrivate' ./internal/csim/

# The end-to-end benchmark lives in a nested module (bench/go.mod), so
# the root `go test ./...` never compiles it: an API change in the main
# module could break it silently. Vet it and run its smoke test.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test .

fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParsePrototype -fuzztime 30s ./internal/cparse/
	$(GO) test -run '^$$' -fuzz FuzzDiskCacheLine -fuzztime 30s ./internal/injector/
	$(GO) test -run '^$$' -fuzz FuzzHealString -fuzztime 30s ./internal/wrapper/
	$(GO) test -run '^$$' -fuzz FuzzByteKernels -fuzztime 30s ./internal/clib/

# Crash-loop iteration and client-count knobs for the blackbox mode;
# the 25×8 defaults are the acceptance floor, raise them for soaks.
CRASH_ITERATIONS ?= 25
CRASH_CLIENTS ?= 8

# The Jepsen-style crash harness: real `healers serve` children driven
# by racing HTTP clients and killed with real SIGKILLs. Three passes —
# the blackbox kill/restart loop over one shared cache file, the
# whitebox sweep (one scenario per internal/crashpoint killpoint, armed
# via a -tags crashtest build, restarted with the untagged binary), and
# the randomized stress mode with its per-campaign-key oracle. All
# artifacts (cache files, child logs, the serialized oracle) land in
# crashtest-artifacts/, which CI uploads on failure.
test-e2e-crash:
	rm -rf crashtest-artifacts
	mkdir -p bin
	$(GO) build -o bin/healers ./cmd/healers
	$(GO) build -tags crashtest -o bin/healers-crashtest ./cmd/healers
	$(GO) build -o bin/crashtest ./cmd/crashtest
	bin/crashtest -bin bin/healers -mode crash -iterations $(CRASH_ITERATIONS) -clients $(CRASH_CLIENTS) -artifacts crashtest-artifacts -v
	bin/crashtest -bin bin/healers -crashbin bin/healers-crashtest -mode whitebox -artifacts crashtest-artifacts -v
	bin/crashtest -bin bin/healers -mode stress -ops 200 -clients $(CRASH_CLIENTS) -artifacts crashtest-artifacts -v

table1:
	$(GO) run ./cmd/healers table1

figure6:
	$(GO) run ./cmd/healers figure6

stats:
	$(GO) run ./cmd/healers stats

analyze:
	$(GO) run ./cmd/healers analyze

clean:
	$(GO) clean ./...

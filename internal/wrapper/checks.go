package wrapper

import (
	"bytes"

	"healers/internal/cmem"
	"healers/internal/csim"
	"healers/internal/decl"
)

// Memory checking functions (§5.1). The wrapper never *touches* memory
// it validates — the stateful tiers consult tables, the stateless tier
// inspects page protection, the moral equivalent of touching one byte
// per page under a signal handler without the side effects.

// cacheEntry records a previously validated extent at a base address.
type cacheEntry struct {
	size  int
	write bool
}

// checkMemory validates that [addr, addr+size) is accessible with the
// required permissions. size 0 still requires the first byte's page to
// be mapped, so wild pointers are rejected even for empty ranges.
func (ip *Interposer) checkMemory(addr cmem.Addr, size int, needRead, needWrite bool) bool {
	if size < 0 {
		return false
	}
	if size == 0 {
		size = 1
	}

	if ip.checkCache != nil {
		if e, ok := ip.checkCache[addr]; ok && e.size >= size && (e.write || !needWrite) {
			return true
		}
	}
	ok := ip.checkMemorySlow(addr, size, needRead, needWrite)
	if ok && ip.checkCache != nil {
		if e, exists := ip.checkCache[addr]; !exists || size > e.size {
			ip.checkCache[addr] = cacheEntry{size: size, write: needWrite || (exists && e.write)}
		}
	}
	return ok
}

func (ip *Interposer) checkMemorySlow(addr cmem.Addr, size int, needRead, needWrite bool) bool {

	if !ip.opts.Stateless {
		// Tier 1: the allocation table. Exact bounds — this is the
		// tier that catches overflows staying inside a mapped page.
		if base, allocSize, ok := ip.heapLookup(addr); ok {
			return addr+cmem.Addr(size) <= base+cmem.Addr(allocSize)
		}
		// Tier 2: stack frames (the Libsafe stack-smashing bound): a
		// write may not extend past the owning frame's saved link.
		if ip.p.Mem.Stack().Contains(addr) {
			if needWrite {
				limit, ok := ip.p.Mem.Stack().FrameLimit(addr)
				if ok {
					return size <= limit
				}
			}
			return true // readable stack memory
		}
	}

	// Tier 3: stateless page probing.
	return ip.probePages(addr, size, needRead, needWrite)
}

// heapLookup finds the tracked allocation containing addr.
func (ip *Interposer) heapLookup(addr cmem.Addr) (cmem.Addr, int, bool) {
	ip.work++
	// The table is small for typical workloads; a linear containment
	// scan keeps the structure simple. The direct-hit case is first.
	if size, ok := ip.heap[addr]; ok {
		return addr, size, true
	}
	for base, size := range ip.heap {
		if addr > base && addr < base+cmem.Addr(size) {
			return base, size, true
		}
	}
	return 0, 0, false
}

// probePages checks protection of one byte per page across the range
// (§5.1: "For large buffers that spread across multiple memory pages,
// only one byte per page needs to be tested").
func (ip *Interposer) probePages(addr cmem.Addr, size int, needRead, needWrite bool) bool {
	if addr+cmem.Addr(size)-1 < addr {
		return false // the range wraps the address space
	}
	first := addr.PageBase()
	last := (addr + cmem.Addr(size) - 1).PageBase()
	for base := first; ; base += cmem.PageSize {
		ip.work++
		prot, mapped := ip.p.Mem.ProtAt(base)
		if !mapped {
			return false
		}
		if needRead && prot&cmem.ProtRead == 0 {
			return false
		}
		if needWrite && prot&cmem.ProtWrite == 0 {
			return false
		}
		if base == last {
			break
		}
	}
	return true
}

// scan walks the string at addr a page segment at a time over at most
// limit bytes. It stops at the first NUL (terminated), at the first
// byte it may not read — or, with writable, may not write — or at the
// limit, and returns how many bytes precede the stop. It charges
// ip.work one unit per byte examined, the stopping NUL or inaccessible
// byte included: what a byte-at-a-time walk charges.
func (ip *Interposer) scan(addr cmem.Addr, limit int, writable bool) (n int, terminated bool) {
	for n < limit {
		seg, prot, _ := ip.p.Mem.Segment(addr + cmem.Addr(n))
		if seg == nil || (writable && prot&cmem.ProtWrite == 0) {
			ip.work++
			return n, false
		}
		seg = seg[:min(len(seg), limit-n)]
		if i := bytes.IndexByte(seg, 0); i >= 0 {
			ip.work += i + 1
			return n + i, true
		}
		ip.work += len(seg)
		n += len(seg)
	}
	return n, false
}

// checkCString validates a NUL-terminated string: every byte up to the
// terminator must be readable (and writable for W_CSTR). When the
// string lives in a tracked heap allocation, the terminator must fall
// inside the allocation — an unterminated heap string is detected even
// though the bytes after it are in the same mapped page.
func (ip *Interposer) checkCString(addr cmem.Addr, writable bool) bool {
	limit := ip.maxStrlen
	if !ip.opts.Stateless {
		if base, size, ok := ip.heapLookup(addr); ok {
			limit = int(base + cmem.Addr(size) - addr)
		}
	}
	_, terminated := ip.scan(addr, limit, writable)
	return terminated
}

// checkBoundedString validates the strncpy-source contract: every byte
// up to a NUL terminator or the bound (whichever comes first) must be
// readable.
func (ip *Interposer) checkBoundedString(addr cmem.Addr, bound int) bool {
	if bound < 0 {
		return false
	}
	bound = min(bound, ip.maxStrlen)
	n, terminated := ip.scan(addr, bound, false)
	return terminated || n == bound
}

// strlen measures a string for size expressions; ok is false when the
// string is unreadable or unterminated within the limit.
func (ip *Interposer) strlen(addr cmem.Addr) (int, bool) {
	if addr == 0 {
		return 0, false
	}
	n, terminated := ip.scan(addr, ip.maxStrlen, false)
	if !terminated {
		return 0, false
	}
	return n, true
}

// checkFILE validates a FILE pointer per §5.2: the memory must hold a
// readable and writable region of the FILE's size, and the descriptor
// inside must be live — verified by calling fileno and fstat through
// the library itself (the recursion flag is already set). The check is
// deliberately incomplete: a corrupted FILE that retains a valid
// descriptor passes, which is exactly the residual failure class of the
// paper's fully automatic wrapper.
func (ip *Interposer) checkFILE(addr cmem.Addr, k decl.Kind) bool {
	if ip.fileCache != nil {
		if ok, seen := ip.fileCache[fileCacheKey{addr, k}]; seen {
			return ok
		}
	}
	ok := ip.checkFILESlow(addr, k)
	if ip.fileCache != nil {
		ip.fileCache[fileCacheKey{addr, k}] = ok
	}
	return ok
}

func (ip *Interposer) checkFILESlow(addr cmem.Addr, k decl.Kind) bool {
	// The fileno+fstat round trip dominates the cost of FILE checks.
	ip.work += 8
	if !ip.checkMemory(addr, csim.SizeofFILE, true, true) {
		return false
	}
	ip.libArgs[0] = uint64(addr)
	fd := int64(ip.lib.Call(ip.p, "fileno", ip.libArgs[:1]...))
	if fd < 0 {
		return false
	}
	if ip.statBuf == 0 {
		buf, err := ip.p.Mem.MmapRegion(csim.SizeofStat, cmem.ProtRW)
		if err != nil {
			return false
		}
		ip.statBuf = buf
	}
	ip.libArgs[0], ip.libArgs[1] = uint64(fd), uint64(ip.statBuf)
	if int64(ip.lib.Call(ip.p, "fstat", ip.libArgs[:2]...)) != 0 {
		return false
	}
	// Access-mode refinement for R_FILE / W_FILE from the flag word.
	flags, f := ip.p.Mem.ReadU32(addr + csim.FILEOffFlags)
	if f != nil {
		return false
	}
	if k.Read && flags&csim.FILEFlagRead == 0 {
		return false
	}
	return !k.Write || flags&csim.FILEFlagWrite != 0
}

// checkFILEIntegrity is the manually added executable assertion of the
// semi-automatic wrapper: beyond fileno+fstat, the structure's magic
// and internal buffer must be coherent. This closes the corrupted-FILE
// hole that survives the fully automatic wrapper.
func (ip *Interposer) checkFILEIntegrity(addr cmem.Addr) bool {
	if !ip.checkFILE(addr, decl.OpenFILE) {
		return false
	}
	magic, f := ip.p.Mem.ReadU32(addr + csim.FILEOffMagic)
	if f != nil || magic != csim.FILEMagic {
		return false
	}
	bufPtr, f := ip.p.Mem.ReadU64(addr + csim.FILEOffBufPtr)
	if f != nil {
		return false
	}
	bufSize, f := ip.p.Mem.ReadU64(addr + csim.FILEOffBufSize)
	if f != nil {
		return false
	}
	if bufPtr == 0 || bufSize == 0 || bufSize > 1<<20 {
		return false
	}
	return ip.checkMemory(cmem.Addr(bufPtr), int(bufSize), true, true)
}

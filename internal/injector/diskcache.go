package injector

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"

	"healers/internal/crashpoint"
	"healers/internal/decl"
	"healers/internal/gens"
)

// cacheLog is the append-only JSONL file behind a disk-backed
// ResultCache (OpenDiskCache), so campaign results survive process
// restarts. Each line is one self-validating entry — a version tag, the
// content-address key, an fnv64a checksum, and the serialized result —
// and the load path is corruption-tolerant: truncated tails, bit-flipped
// payloads, garbage lines, and entries written by a different format
// version are silently dropped (counted in Stats().Dropped) and simply
// recomputed on next use. A dropped or missing entry can never produce
// a wrong vector, only extra work; a checksum-valid entry is served
// as-is, which is sound because the key embeds everything that
// determines the result (prototype text + config fingerprint).
//
// Lines are appended under the log lock, so the file is a serialized
// log even with concurrent campaigns, and the file itself carries a
// non-blocking exclusive flock for its open lifetime: a second process
// opening the same path gets a clear error instead of interleaving
// appends (the kernel releases the lock on process death, so a
// SIGKILLed server never wedges its successor). Duplicate keys (from a
// recomputation after a lost entry) resolve to the last loaded entry.
//
// A kill mid-append leaves a partial final line — bytes with no
// trailing newline. Load treats that fragment as the expected residue
// of a crash, not corruption: it is counted in Stats().Truncated
// (exported as its own metric by the serve layer) and recomputed,
// while Dropped stays reserved for genuine corruption — garbage,
// bit-rot, version skew — anywhere in the file.
//
// A failed or short write poisons the log: the file may now end in a
// torn fragment, and appending behind it would weld the next entry
// onto it. Every later append is skipped (the entry stays memory-only
// and counts as dropped), so the fragment stays the tail the next open
// repairs, and Sync and Close report the write error — a commit never
// acknowledges an entry that did not reach the file.
type cacheLog struct {
	mu sync.Mutex
	f  *os.File // nil after close
	// err is the first failed append; once set, the log is poisoned.
	err    error
	loaded int64
	// dropped counts rejected persisted lines (load-time corruption)
	// and entries that never reached the file: unserializable, put
	// after close, or put after the log was poisoned.
	dropped int64
	// truncated counts a partial final line (no trailing newline) that
	// failed to decode — the signature of a process killed mid-append.
	truncated int64
}

// diskCacheVersion tags each persisted line; bump it when diskResult's
// shape — or what the line checksum covers — changes, so skewed
// entries from older builds are recomputed instead of misread.
// Version 2 extended the checksum to cover the key, closing the bit
// rot gap FuzzDiskCacheLine exposed: a v1 line with a flipped key byte
// still checksummed clean and would have been served under the wrong
// content address.
const diskCacheVersion = 2

// diskEntry is one JSONL line of the persistent cache.
type diskEntry struct {
	V   int    `json:"v"`
	Key string `json:"key"`
	// Sum is the fnv64a of the key, a NUL separator, and the raw
	// Result payload bytes, %016x — every field that determines which
	// result a lookup gets is under the checksum.
	Sum    string          `json:"sum"`
	Result json.RawMessage `json:"result"`
}

// diskResult is the serialized subset of Result that cached-campaign
// consumers read: the declaration (as its archival Figure 2 XML, which
// round-trips), the robust names, the experiment counters, and the
// error classification. Proto is deliberately absent — no consumer of
// a cached result dereferences it, and its text is already folded into
// the key.
type diskResult struct {
	Name        string         `json:"name"`
	DeclXML     string         `json:"decl"`
	RobustNames []string       `json:"robust,omitempty"`
	Calls       int            `json:"calls"`
	Crashes     int            `json:"crashes,omitempty"`
	Hangs       int            `json:"hangs,omitempty"`
	Aborts      int            `json:"aborts,omitempty"`
	Seed        gens.SeedStats `json:"seed"`
	ErrClass    uint8          `json:"errclass"`
}

func payloadSum(key string, payload []byte) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	h.Write([]byte{0})
	h.Write(payload)
	return fmt.Sprintf("%016x", h.Sum64())
}

func encodeResult(r *Result) ([]byte, error) {
	if r.Decl == nil {
		return nil, fmt.Errorf("injector: result %s has no declaration", r.Name)
	}
	xml, err := r.Decl.EncodeXML()
	if err != nil {
		return nil, err
	}
	return json.Marshal(diskResult{
		Name:        r.Name,
		DeclXML:     string(xml),
		RobustNames: r.RobustNames,
		Calls:       r.Calls,
		Crashes:     r.Crashes,
		Hangs:       r.Hangs,
		Aborts:      r.Aborts,
		Seed:        r.Seed,
		ErrClass:    uint8(r.ErrClass),
	})
}

func decodeResult(payload []byte) (*Result, error) {
	var dr diskResult
	if err := json.Unmarshal(payload, &dr); err != nil {
		return nil, err
	}
	d, err := decl.UnmarshalXML([]byte(dr.DeclXML))
	if err != nil {
		return nil, err
	}
	// ErrClass is not part of the Figure 2 XML schema; restore it on
	// both the declaration and the result from the sidecar field.
	d.ErrClass = decl.ErrClass(dr.ErrClass)
	return &Result{
		Name:        dr.Name,
		Decl:        d,
		RobustNames: dr.RobustNames,
		Calls:       dr.Calls,
		Crashes:     dr.Crashes,
		Hangs:       dr.Hangs,
		Aborts:      dr.Aborts,
		Seed:        dr.Seed,
		ErrClass:    decl.ErrClass(dr.ErrClass),
	}, nil
}

// decodeDiskLine validates and decodes one persisted JSONL line: JSON
// shape, format version, payload checksum, and result deserialization
// all have to pass before an entry is eligible to be served. This is
// the single gate between bytes on disk and results handed to
// campaigns — FuzzDiskCacheLine hammers it directly.
func decodeDiskLine(line []byte) (key string, r *Result, err error) {
	var e diskEntry
	if err := json.Unmarshal(line, &e); err != nil {
		return "", nil, fmt.Errorf("injector: cache line: %w", err)
	}
	if e.V != diskCacheVersion {
		return "", nil, fmt.Errorf("injector: cache line version %d, want %d", e.V, diskCacheVersion)
	}
	if payloadSum(e.Key, e.Result) != e.Sum {
		return "", nil, fmt.Errorf("injector: cache line checksum mismatch")
	}
	if e.Key == "" {
		return "", nil, fmt.Errorf("injector: cache line has no key")
	}
	r, err = decodeResult(e.Result)
	if err != nil {
		return "", nil, err
	}
	return e.Key, r, nil
}

// encodeLine serializes one cache entry as its JSONL line, newline
// included.
func encodeLine(key string, r *Result) ([]byte, error) {
	payload, err := encodeResult(r)
	if err != nil {
		return nil, err
	}
	line, err := json.Marshal(diskEntry{
		V:      diskCacheVersion,
		Key:    key,
		Sum:    payloadSum(key, payload),
		Result: payload,
	})
	return append(line, '\n'), err
}

// OpenDiskCache opens (creating if absent) the persistent cache at
// path: a ResultCache with the file as its log. It takes the
// single-writer lock and loads every entry that passes version and
// checksum validation. It never fails on a corrupt file — only on I/O
// errors opening or creating it, or when another live process already
// holds the file's lock.
func OpenDiskCache(path string) (*ResultCache, error) {
	c := NewResultCache()
	log, err := openCacheLog(path, c.restore)
	if err != nil {
		return nil, err
	}
	c.log = log
	return c, nil
}

// openCacheLog opens the log at path and replays it through restore,
// which reports whether the key was new.
func openCacheLog(path string, restore func(key string, r *Result) bool) (*cacheLog, error) {
	_, statErr := os.Stat(path)
	created := os.IsNotExist(statErr)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("injector: open disk cache: %w", err)
	}
	if err := lockFile(f); err != nil {
		f.Close()
		return nil, err
	}
	if created {
		// Make the new file's directory entry durable before anything is
		// written through it; best-effort on filesystems that reject
		// directory fsync, fatal on real I/O failure.
		if err := syncDir(filepath.Dir(path)); err != nil && !os.IsNotExist(err) {
			f.Close()
			return nil, fmt.Errorf("injector: open disk cache: fsync dir: %w", err)
		}
	}
	// The lock is held, so no live writer can race this read.
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("injector: open disk cache: %w", err)
	}
	l := &cacheLog{}
	l.load(data, restore)
	// Tail repair: a file that does not end in a newline was torn by a
	// kill mid-append (or a failed write). Appending behind the
	// fragment would weld the next entry onto it and corrupt both, so
	// the opener — which holds the exclusive lock — fixes the tail
	// first: a fragment that is a complete, checksummed entry just gets
	// its newline back; a torn fragment is chopped at the last clean
	// line boundary.
	if n := len(data); n > 0 && data[n-1] != '\n' {
		tailStart := bytes.LastIndexByte(data[:n-1], '\n') + 1
		if _, _, err := decodeDiskLine(data[tailStart:]); err != nil {
			if terr := f.Truncate(int64(tailStart)); terr != nil {
				f.Close()
				return nil, fmt.Errorf("injector: open disk cache: repairing torn tail: %w", terr)
			}
		} else if _, werr := f.Write([]byte{'\n'}); werr != nil {
			f.Close()
			return nil, fmt.Errorf("injector: open disk cache: completing tail line: %w", werr)
		}
	}
	l.f = f
	return l, nil
}

// load replays the JSONL log. Lines are split manually (not
// strings.Split) so the loader can tell a complete-but-corrupt line
// (dropped) from a partial final fragment with no trailing newline
// (truncated — the normal residue of a kill mid-append). A fragment
// that decodes and checksums cleanly is a complete entry that lost
// only its newline to the crash, and is loaded.
func (l *cacheLog) load(data []byte, restore func(key string, r *Result) bool) {
	for len(data) > 0 {
		var line []byte
		nl := bytes.IndexByte(data, '\n')
		complete := nl >= 0
		if complete {
			line, data = data[:nl], data[nl+1:]
		} else {
			line, data = data, nil
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		key, r, err := decodeDiskLine(line)
		if err != nil {
			if complete {
				l.dropped++ // garbage, bit rot, or version skew
			} else {
				l.truncated++ // mid-append kill tore the tail
			}
			continue
		}
		if restore(key, r) {
			l.loaded++
		}
	}
}

// append writes one encoded line (or counts the entry that could not
// be encoded, encErr) with l.mu held. An entry that does not reach the
// file counts as dropped; the first failed write poisons the log.
func (l *cacheLog) append(line []byte, encErr error) {
	if encErr != nil || l.f == nil || l.err != nil {
		l.dropped++
		return
	}
	if crashpoint.Armed(crashpoint.DiskCachePutMidline) {
		if crashpoint.Firing(crashpoint.DiskCachePutMidline) {
			// Whitebox crash: push half the line through write(2), then
			// die mid-append (the Hit below). The surviving prefix is
			// exactly the truncated tail the loader must tolerate.
			l.f.Write(line[:len(line)/2]) //nolint:errcheck // about to SIGKILL
		}
		crashpoint.Hit(crashpoint.DiskCachePutMidline)
	}
	crashpoint.Hit(crashpoint.DiskCachePutBefore)
	if _, err := l.f.Write(line); err != nil {
		l.err = fmt.Errorf("injector: disk cache append: %w", err)
		l.dropped++
	}
}

// sync forces every appended line through to stable storage, or
// reports the write error that poisoned the log.
func (l *cacheLog) sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil || l.f == nil {
		return l.err
	}
	crashpoint.Hit(crashpoint.DiskCacheSyncBefore)
	err := l.f.Sync()
	crashpoint.Hit(crashpoint.DiskCacheSyncAfter)
	return err
}

// close syncs and closes the file, releasing its lock; a poisoned log
// skips the sync and reports its write error.
func (l *cacheLog) close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return l.err
	}
	err := l.err
	if err == nil {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

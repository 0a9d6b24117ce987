package injector

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"healers/internal/clib"
	"healers/internal/corpus"
	"healers/internal/extract"
)

// validDiskLine encodes one real campaign result into a persisted
// cache line — the ground truth the fuzz mutations start from. It
// runs the actual pipeline (extraction + injection over one small
// function) so the DeclXML payload, checksum, and version are exactly
// what a live disk cache writes.
func validDiskLine(t testing.TB, name string) []byte {
	lib := clib.New()
	ext, err := extract.Run(corpus.Build(lib))
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(lib, DefaultConfig()).InjectAll(ext, []string{name})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := encodeResult(c.Results[name])
	if err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(diskEntry{
		V:      diskCacheVersion,
		Key:    "fuzz-seed-" + name,
		Sum:    payloadSum("fuzz-seed-"+name, payload),
		Result: payload,
	})
	if err != nil {
		t.Fatal(err)
	}
	return line
}

// mutateDiskLines derives the crash- and corruption-shaped variants of
// a valid line: truncations at line/payload boundaries (what a
// mid-append SIGKILL leaves), single bit flips in the payload, the
// checksum, and the key (bit rot), and version skew (an old or future
// build's entries). Every variant must decode to an error or to a
// checksum-clean entry — never panic, never garbage.
func mutateDiskLines(valid []byte) map[string][]byte {
	m := map[string][]byte{
		"valid": valid,

		// Mid-write truncations: half a line, one byte short, a bare
		// prefix, and the empty tail.
		"truncated_half":     valid[:len(valid)/2],
		"truncated_lastbyte": valid[:len(valid)-1],
		"truncated_prefix":   valid[:12],
		"truncated_empty":    {},

		// Structural garbage around the JSONL framing.
		"garbage_text":   []byte("not json at all"),
		"garbage_object": []byte(`{"v":1,"unrelated":true}`),
		"garbage_nested": []byte(`{"v":1,"key":"k","sum":"0","result":{"deep":[[[[1]]]]}}`),
	}

	flip := func(i int) []byte {
		b := append([]byte(nil), valid...)
		b[i] ^= 0x40
		return b
	}
	// Bit rot at structurally interesting offsets: inside the version
	// field, the key, the checksum, and the payload body.
	if i := bytes.Index(valid, []byte(`"sum":"`)); i >= 0 {
		m["bitflip_sum"] = flip(i + len(`"sum":"`) + 2)
	}
	if i := bytes.Index(valid, []byte(`"result":`)); i >= 0 {
		m["bitflip_payload"] = flip(i + len(`"result":`) + 10)
	}
	if i := bytes.Index(valid, []byte(`"key":"`)); i >= 0 {
		m["bitflip_key"] = flip(i + len(`"key":"`) + 1)
	}

	// Version skew: the same entry stamped by older and newer formats.
	m["version_zero"] = bytes.Replace(valid,
		[]byte(fmt.Sprintf(`{"v":%d`, diskCacheVersion)), []byte(`{"v":0`), 1)
	m["version_future"] = bytes.Replace(valid,
		[]byte(fmt.Sprintf(`{"v":%d`, diskCacheVersion)), []byte(`{"v":999`), 1)
	return m
}

// FuzzDiskCacheLine hammers decodeDiskLine, the single gate between
// bytes on disk and results served to campaigns. Two properties over
// arbitrary line bytes: the decoder never panics (errors are the
// expected answer for damage), and any line it accepts is
// self-consistent — correct version, a checksum that re-verifies
// against the payload, a non-empty key, and a fully reconstructed
// Result whose re-encoding checksums to the same payload the line
// carried. The checked-in corpus under testdata/fuzz seeds the
// truncated/bit-flipped/version-skewed shapes (regenerate with
// REGEN_FUZZ_CORPUS=1 after a format bump).
func FuzzDiskCacheLine(f *testing.F) {
	for _, line := range mutateDiskLines(validDiskLine(f, "strcpy")) {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		key, r, err := decodeDiskLine(line)
		if err != nil {
			return // rejection is the correct response to damage
		}
		// Accepted entries must be checksum-clean end to end.
		var e diskEntry
		if jerr := json.Unmarshal(line, &e); jerr != nil {
			t.Fatalf("accepted line does not re-parse: %v", jerr)
		}
		if e.V != diskCacheVersion {
			t.Fatalf("accepted line carries version %d, want %d", e.V, diskCacheVersion)
		}
		if got := payloadSum(e.Key, e.Result); got != e.Sum {
			t.Fatalf("accepted line fails its checksum: payload sums to %s, line claims %s", got, e.Sum)
		}
		if key == "" || key != e.Key {
			t.Fatalf("accepted line key %q, decoder returned %q", e.Key, key)
		}
		if r == nil || r.Decl == nil {
			t.Fatalf("accepted line decoded to an unusable result: %+v", r)
		}
		// Decoding must be deterministic: the same bytes can never
		// yield two different results across restarts.
		_, r2, err2 := decodeDiskLine(line)
		if err2 != nil || !reflect.DeepEqual(r, r2) {
			t.Fatalf("decode is not deterministic (err2 %v)", err2)
		}
	})
}

// TestDiskCacheLineMutations runs the mutation table through the
// loader in a plain test, pinning the classification each shape gets:
// the valid line loads, every damaged variant is rejected without
// panic. REGEN_FUZZ_CORPUS=1 additionally rewrites the checked-in
// seed corpus from the live format.
func TestDiskCacheLineMutations(t *testing.T) {
	variants := mutateDiskLines(validDiskLine(t, "strcpy"))
	for name, line := range variants {
		_, _, err := decodeDiskLine(line)
		if name == "valid" {
			if err != nil {
				t.Errorf("valid line rejected: %v", err)
			}
		} else if err == nil {
			t.Errorf("damaged variant %s was accepted", name)
		}
	}

	if os.Getenv("REGEN_FUZZ_CORPUS") == "" {
		return
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDiskCacheLine")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, line := range variants {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", line)
		if err := os.WriteFile(filepath.Join(dir, "seed_"+name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

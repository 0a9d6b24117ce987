package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// JSONLSink encodes every event as one JSON object per line. The
// stream is the archival trace format: `healers table1 -trace out.jsonl`
// writes it, ParseJSONL reads it back.
type JSONLSink struct {
	enc *json.Encoder
	err error
}

// NewJSONLSink returns a sink writing JSON lines to w. The caller owns
// w's lifetime (and closing, for files).
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w)}
}

// Emit implements Sink. Tracing must never turn an experiment outcome
// into a harness failure, so a write error stops the sink and is kept
// for Err instead of reaching the emitter.
func (s *JSONLSink) Emit(e Event) {
	if s.err == nil {
		s.err = s.enc.Encode(e)
	}
}

// Err returns the first write error, or nil, once the traced work is done.
func (s *JSONLSink) Err() error { return s.err }

// ParseJSONL decodes a JSONL trace back into events, in stream order.
// Blank lines are skipped; a malformed line is an error.
func ParseJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(b, &e); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading trace: %w", err)
	}
	return out, nil
}

// TextSink renders each event as one human-readable line (Event.String).
type TextSink struct {
	w io.Writer
}

// NewTextSink returns a sink writing rendered lines to w.
func NewTextSink(w io.Writer) *TextSink { return &TextSink{w: w} }

// Emit implements Sink.
func (s *TextSink) Emit(e Event) { fmt.Fprintln(s.w, e.String()) }

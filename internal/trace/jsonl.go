package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"

	"plasma/internal/sim"
)

// The JSONL format is the trace layer's interchange form: one record per
// line, every field present, fields in a fixed order, floats in Go's
// shortest 'g' form (a non-finite value, which JSON cannot spell, as null,
// read back as 0). Writing is deliberately by hand (not encoding/json)
// so the byte layout is a function of the records alone — two runs at the
// same seed produce byte-identical files, and `plasma-trace diff` (or
// plain cmp) localizes determinism drift to the first divergent record.

// jsonlRecord mirrors Record for parsing; Kind travels as its string name.
type jsonlRecord struct {
	ID     uint64  `json:"id"`
	Parent uint64  `json:"par"`
	At     int64   `json:"at"`
	Kind   string  `json:"kind"`
	Tick   int32   `json:"tick"`
	Server int32   `json:"srv"`
	Target int32   `json:"trg"`
	Actor  uint64  `json:"actor"`
	Rule   int32   `json:"rule"`
	Value  float64 `json:"val"`
	Detail string  `json:"det"`
}

// AppendJSONL appends one record's JSONL line (with trailing newline).
func AppendJSONL(dst []byte, r Record) []byte {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, r.ID, 10)
	dst = append(dst, `,"par":`...)
	dst = strconv.AppendUint(dst, r.Parent, 10)
	dst = append(dst, `,"at":`...)
	dst = strconv.AppendInt(dst, int64(r.At), 10)
	dst = append(dst, `,"kind":`...)
	dst = appendJSONString(dst, r.Kind.String())
	dst = append(dst, `,"tick":`...)
	dst = strconv.AppendInt(dst, int64(r.Tick), 10)
	dst = append(dst, `,"srv":`...)
	dst = strconv.AppendInt(dst, int64(r.Server), 10)
	dst = append(dst, `,"trg":`...)
	dst = strconv.AppendInt(dst, int64(r.Target), 10)
	dst = append(dst, `,"actor":`...)
	dst = strconv.AppendUint(dst, r.Actor, 10)
	dst = append(dst, `,"rule":`...)
	dst = strconv.AppendInt(dst, int64(r.Rule), 10)
	dst = append(dst, `,"val":`...)
	if math.IsNaN(r.Value) || math.IsInf(r.Value, 0) {
		dst = append(dst, "null"...)
	} else {
		dst = strconv.AppendFloat(dst, r.Value, 'g', -1, 64)
	}
	dst = append(dst, `,"det":`...)
	dst = appendJSONString(dst, r.Detail)
	dst = append(dst, '}', '\n')
	return dst
}

// appendJSONString appends s as a JSON string, in one pass and without
// allocating. Printable ASCII comes out as strconv.Quote writes it, so
// traces of plain details keep their bytes. Control characters take JSON's
// escapes, valid UTF-8 passes through, and each byte of invalid UTF-8
// becomes U+FFFD: strconv's \a, \v, \x00 and \xff are not JSON.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			if r != utf8.RuneError || size != 1 {
				i += size
				continue
			}
		} else if c >= ' ' && c != '"' && c != '\\' {
			i++
			continue
		}
		dst = append(dst, s[start:i]...)
		switch c {
		case '"', '\\':
			dst = append(dst, '\\', c)
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		case '\b':
			dst = append(dst, '\\', 'b')
		case '\f':
			dst = append(dst, '\\', 'f')
		default:
			if c >= utf8.RuneSelf {
				dst = append(dst, `\ufffd`...)
			} else {
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
		}
		i++
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// WriteJSONL writes records as JSONL, one per line, in order.
func WriteJSONL(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for _, r := range recs {
		line = AppendJSONL(line[:0], r)
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a JSONL trace. Blank lines are skipped; any malformed
// line or unknown kind is an error naming the line number.
func ReadJSONL(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var out []Record
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var jr jsonlRecord
		if err := json.Unmarshal(line, &jr); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		k, ok := KindFromString(jr.Kind)
		if !ok {
			return nil, fmt.Errorf("trace: line %d: unknown kind %q", lineNo, jr.Kind)
		}
		out = append(out, Record{
			ID: jr.ID, Parent: jr.Parent, At: sim.Time(jr.At), Kind: k,
			Tick: jr.Tick, Server: jr.Server, Target: jr.Target,
			Actor: jr.Actor, Rule: jr.Rule, Value: jr.Value, Detail: jr.Detail,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: reading: %w", err)
	}
	return out, nil
}

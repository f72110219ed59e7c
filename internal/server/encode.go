package server

// The response writer (DESIGN.md §13 "Byte identity"): the one way result
// data reaches the wire on POST /v1/query and POST /v1/clean. It appends
// each row, or each clean answer with its prob and stderr, as JSON into
// one per-request buffer and hands that buffer to the connection whenever
// it holds a chunk, so no value is boxed into an any and no response is
// encoded whole before its first byte. The bytes are the ones
// json.NewEncoder(w).Encode writes for QueryResponse and CleanResponse —
// member order, omitempty, null for a nil slice, ES6 float formatting and
// HTML-safe string escaping — which the tests check against encoding/json.

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"unicode/utf8"

	"conquer/internal/core"
	"conquer/internal/qerr"
	"conquer/internal/value"
)

// chunkBytes is how much the writer gathers before it writes. The buffer
// has room for as much again, so an ordinary row never grows it; it is
// the request's own, collected with it (a pooled buffer would outlive
// the request and hold the largest response ever sent).
const chunkBytes = 4 << 10

// jsonWriter appends JSON to buf and writes buf to w a chunk at a time.
// The loops that feed it stop at the first failed write: they format no
// further row and write nothing more.
type jsonWriter struct {
	w   io.Writer
	buf []byte
	err error
}

// newJSONWriter starts a 200 with a JSON body on w.
func newJSONWriter(w http.ResponseWriter) jsonWriter {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	return jsonWriter{w: w, buf: make([]byte, 0, 2*chunkBytes)}
}

// spill writes the buffer once it holds a chunk, and reports whether the
// client is still there to take more.
func (jw *jsonWriter) spill() bool {
	if len(jw.buf) >= chunkBytes {
		jw.flush()
	}
	return jw.err == nil
}

// flush writes what is buffered.
func (jw *jsonWriter) flush() {
	_, jw.err = jw.w.Write(jw.buf)
	jw.buf = jw.buf[:0]
}

func (jw *jsonWriter) raw(s string) { jw.buf = append(jw.buf, s...) }

func (jw *jsonWriter) str(s string) { jw.buf = appendString(jw.buf, s) }

func (jw *jsonWriter) int(n int64) { jw.buf = strconv.AppendInt(jw.buf, n, 10) }

func (jw *jsonWriter) float(f float64) { jw.buf = appendFloat(jw.buf, f) }

// strs writes a []string member: null when nil.
func (jw *jsonWriter) strs(ss []string) {
	if ss == nil {
		jw.raw("null")
		return
	}
	jw.buf = append(jw.buf, '[')
	for i, s := range ss {
		if i > 0 {
			jw.buf = append(jw.buf, ',')
		}
		jw.str(s)
	}
	jw.buf = append(jw.buf, ']')
}

// row writes one row of values as a JSON array.
func (jw *jsonWriter) row(vs []value.Value) {
	jw.buf = append(jw.buf, '[')
	for i, v := range vs {
		if i > 0 {
			jw.buf = append(jw.buf, ',')
		}
		switch v.Kind() {
		case value.KindInt:
			jw.int(v.AsInt())
		case value.KindFloat:
			jw.float(v.AsFloat())
		case value.KindString:
			jw.str(v.AsString())
		case value.KindBool:
			jw.buf = strconv.AppendBool(jw.buf, v.AsBool())
		default:
			jw.raw("null")
		}
	}
	jw.buf = append(jw.buf, ']')
}

// stats writes the accounting block, leaving out the zero omitempty
// members as QueryStats' tags do.
func (jw *jsonWriter) stats(st QueryStats) {
	jw.raw(`{"rows":`)
	jw.int(int64(st.Rows))
	jw.raw(`,"exec_us":`)
	jw.int(st.ExecMicros)
	jw.raw(`,"queued_us":`)
	jw.int(st.QueuedMicros)
	if st.Parallelism != 0 {
		jw.raw(`,"par":`)
		jw.int(int64(st.Parallelism))
	}
	if st.Shards != 0 {
		jw.raw(`,"shards":`)
		jw.int(int64(st.Shards))
	}
	if st.Cached {
		jw.raw(`,"cached":true`)
	}
	jw.buf = append(jw.buf, '}')
}

// writeQuery answers a POST /v1/query with the bytes of
// json.NewEncoder(w).Encode(QueryResponse{cols, rows, st}). A result
// holding a float JSON cannot carry is the typed 500, decided before the
// first byte is written.
func (s *Server) writeQuery(w http.ResponseWriter, cols []string, rows [][]value.Value, st QueryStats) {
	for _, r := range rows {
		if err := finiteValues(r); err != nil {
			s.writeError(w, err)
			return
		}
	}
	jw := newJSONWriter(w)
	jw.raw(`{"columns":`)
	jw.strs(cols)
	jw.raw(`,"rows":[`)
	for i, r := range rows {
		if i > 0 {
			jw.buf = append(jw.buf, ',')
		}
		jw.row(r)
		if !jw.spill() {
			return
		}
	}
	jw.raw(`],"stats":`)
	jw.stats(st)
	jw.raw("}\n")
	jw.flush()
}

// writeClean answers a POST /v1/clean with the bytes of
// json.NewEncoder(w).Encode(CleanResponse{...}) for res and st, under the
// same rule as writeQuery for floats JSON cannot carry — a value, a
// probability or a standard error.
func (s *Server) writeClean(w http.ResponseWriter, res *core.Result, st QueryStats) {
	if err := finiteClean(res); err != nil {
		s.writeError(w, err)
		return
	}
	jw := newJSONWriter(w)
	jw.raw(`{"columns":`)
	jw.strs(res.Columns)
	jw.raw(`,"answers":[`)
	for i, a := range res.Answers {
		if i > 0 {
			jw.buf = append(jw.buf, ',')
		}
		jw.raw(`{"values":`)
		jw.row(a.Values)
		jw.raw(`,"prob":`)
		jw.float(a.Prob)
		if !isZero(a.StdErr) {
			jw.raw(`,"stderr":`)
			jw.float(a.StdErr)
		}
		jw.buf = append(jw.buf, '}')
		if !jw.spill() {
			return
		}
	}
	jw.raw(`],"method":`)
	jw.str(res.Method.String())
	if len(res.Degraded) > 0 {
		jw.raw(`,"degraded":[`)
		for i, d := range res.Degraded {
			if i > 0 {
				jw.buf = append(jw.buf, ',')
			}
			jw.str(d.String())
		}
		jw.buf = append(jw.buf, ']')
	}
	if res.Samples != 0 {
		jw.raw(`,"samples":`)
		jw.int(int64(res.Samples))
	}
	if !isZero(res.StdErr) {
		jw.raw(`,"stderr":`)
		jw.float(res.StdErr)
	}
	jw.raw(`,"stats":`)
	jw.stats(st)
	jw.raw("}\n")
	jw.flush()
}

// finiteValues refuses a row holding ±Inf or NaN, which JSON has no
// number for, as an internal error: the result is the engine's, not the
// client's request.
func finiteValues(vs []value.Value) error {
	for _, v := range vs {
		if v.Kind() == value.KindFloat {
			if err := finite(v.AsFloat()); err != nil {
				return err
			}
		}
	}
	return nil
}

// finiteClean checks every float a clean response carries.
func finiteClean(res *core.Result) error {
	if err := finite(res.StdErr); err != nil {
		return err
	}
	for _, a := range res.Answers {
		if err := finiteValues(a.Values); err != nil {
			return err
		}
		if err := finite(a.Prob); err != nil {
			return err
		}
		if err := finite(a.StdErr); err != nil {
			return err
		}
	}
	return nil
}

func finite(f float64) error {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return fmt.Errorf("server: result not representable in JSON: unsupported value %s: %w",
			strconv.FormatFloat(f, 'g', -1, 64), qerr.ErrInternal)
	}
	return nil
}

// appendFloat formats a finite f as encoding/json does: like ES6's
// number-to-string, 'f' form except for magnitudes outside [1e-6, 1e21),
// whose exponent loses a leading zero (1e-07 → 1e-7).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); !isZero(f) && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// isZero reports whether f is 0 or -0: the float omitempty leaves out and
// the one that keeps the 'f' form below 1e-6. The test is on the bits,
// with the sign shifted out.
func isZero(f float64) bool { return math.Float64bits(f)<<1 == 0 }

const hexDigits = "0123456789abcdef"

// appendString quotes s as encoding/json does with HTML escaping on: the
// bytes < > & and every control byte without a short escape (\b \f \n
// \r \t) take the six-byte \u00XX form, an invalid UTF-8 byte becomes
// the escaped replacement character U+FFFD, and U+2028 and U+2029 are
// escaped.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
		} else if r == 0x2028 || r == 0x2029 {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		} else {
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"conquer/internal/core"
	"conquer/internal/metrics"
	"conquer/internal/sqlparse"
	"conquer/internal/tpch"
	"conquer/internal/uisgen"
	"conquer/internal/value"
)

// The oracle: the server once boxed every value into an any and let
// encoding/json marshal the whole response. Its bytes are what the writer
// must produce.

// valueToAny converts an engine value into its encoding/json form.
func valueToAny(v value.Value) any {
	switch v.Kind() {
	case value.KindInt:
		return v.AsInt()
	case value.KindFloat:
		return v.AsFloat()
	case value.KindString:
		return v.AsString()
	case value.KindBool:
		return v.AsBool()
	default:
		return nil
	}
}

func valuesToAny(vs []value.Value) []any {
	out := make([]any, len(vs))
	for i, v := range vs {
		out[i] = valueToAny(v)
	}
	return out
}

func rowsToAny(rows [][]value.Value) [][]any {
	out := make([][]any, len(rows))
	for i, r := range rows {
		out[i] = valuesToAny(r)
	}
	return out
}

// oracleQuery is the body encoding/json writes for a /v1/query result.
func oracleQuery(cols []string, rows [][]value.Value, st QueryStats) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(QueryResponse{Columns: cols, Rows: rowsToAny(rows), Stats: st})
	return buf.Bytes(), err
}

// oracleClean is the body encoding/json writes for a /v1/clean result.
func oracleClean(res *core.Result, st QueryStats) ([]byte, error) {
	degraded := make([]string, len(res.Degraded))
	for i, d := range res.Degraded {
		degraded[i] = d.String()
	}
	answers := make([]CleanAnswer, len(res.Answers))
	for i, a := range res.Answers {
		answers[i] = CleanAnswer{Values: valuesToAny(a.Values), Prob: a.Prob, StdErr: a.StdErr}
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(CleanResponse{
		Columns:  res.Columns,
		Answers:  answers,
		Method:   res.Method.String(),
		Degraded: degraded,
		Samples:  res.Samples,
		StdErr:   res.StdErr,
		Stats:    st,
	})
	return buf.Bytes(), err
}

// checkAgainstOracle compares what the writer sent with the oracle's
// bytes: equal on a 200, and the typed 500 exactly where encoding/json
// refuses the value.
func checkAgainstOracle(t testing.TB, what string, rec *httptest.ResponseRecorder, want []byte, oracleErr error) {
	t.Helper()
	if oracleErr != nil {
		var unsupported *json.UnsupportedValueError
		if !errors.As(oracleErr, &unsupported) {
			t.Fatalf("%s: oracle: %v", what, oracleErr)
		}
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("%s: encoding/json refuses it (%v), the writer answered %d: %q", what, oracleErr, rec.Code, rec.Body.Bytes())
		}
		var b ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &b); err != nil || b.Reason != "internal" {
			t.Fatalf("%s: a 500 whose body is not the typed error: %q", what, rec.Body.Bytes())
		}
		return
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", what, rec.Code, rec.Body.Bytes())
	}
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("%s:\nwriter:        %q\nencoding/json: %q", what, rec.Body.Bytes(), want)
	}
}

// corpusValues are the edge values of every kind.
func corpusValues() []value.Value {
	vs := []value.Value{
		value.Null(), value.Bool(true), value.Bool(false),
		value.Int(0), value.Int(-1), value.Int(255), value.Int(256),
		value.Int(math.MaxInt64), value.Int(math.MinInt64),
	}
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, -123.456, 1e20, 123456789,
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1),
		-1e-6, math.Nextafter(-1e-6, 0),
		1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)),
		-1e21, 1e-7, 1.5e-10, 1e100, 1e-100, 1e-300,
		5e-324, 2.2250738585072009e-308, math.SmallestNonzeroFloat64 * 3,
		math.MaxFloat64, -math.MaxFloat64,
	} {
		vs = append(vs, value.Float(f))
	}
	for _, s := range []string{
		"", "plain", `<a href="x">&amp;</a>`, `back\slash "quoted"`,
		"\x00\x01\x07\b\f\n\r\t\x0b\x1b\x1f\x7f",
		"\xff", "\xfe\xff", "abc\xe2\x82", "\xe2\x28\xa1", "\xc0\xaf", "\xed\xa0\x80",
		"line" + string(rune(0x2028)) + "para" + string(rune(0x2029)) + "end",
		string([]rune{0xe9, 0x65e5, 0x672c, 0x1F600, 0xFFFD, 0x2027, 0x202A}),
	} {
		vs = append(vs, value.Str(s))
	}
	return vs
}

// corpusRows are the corpus values alone, in rows of three, all together
// in one row, and as empty and nil rows.
func corpusRows() [][]value.Value {
	vs := corpusValues()
	var rows [][]value.Value
	for _, v := range vs {
		rows = append(rows, []value.Value{v})
	}
	for i := 0; i+3 <= len(vs); i++ {
		rows = append(rows, vs[i:i+3])
	}
	return append(rows, vs, []value.Value{}, nil)
}

// statsVariants set and unset every omitempty member of QueryStats.
var statsVariants = []QueryStats{
	{},
	{Rows: 3, ExecMicros: 1234, QueuedMicros: 56},
	{Rows: 1, ExecMicros: -1, QueuedMicros: math.MaxInt64, Parallelism: 4},
	{Rows: 2, Cached: true},
	{Rows: 5, ExecMicros: 7, QueuedMicros: 8, Parallelism: 2, Cached: true},
}

var columnVariants = [][]string{nil, {}, {"id"}, {"a", "<b>&c", "bad\xffname", ""}}

// TestResponseBytesMatchEncodingJSON holds the writer to the bytes
// encoding/json writes for the same response, on both endpoints: over a
// corpus of edge values, every column and omitempty variant, and the
// twelve short TPC-H statements served for real.
func TestResponseBytesMatchEncodingJSON(t *testing.T) {
	srv := &Server{}
	rows := corpusRows()
	for ci, cols := range columnVariants {
		for si, st := range statsVariants {
			for _, rs := range [][][]value.Value{nil, {}, rows[:1], rows} {
				rec := httptest.NewRecorder()
				srv.writeQuery(rec, cols, rs, st)
				want, err := oracleQuery(cols, rs, st)
				checkAgainstOracle(t, fmt.Sprintf("query cols#%d stats#%d %d rows", ci, si, len(rs)), rec, want, err)
			}
		}
	}

	answers := make([]core.Answer, len(rows))
	for i, r := range rows {
		answers[i] = core.Answer{Values: r, Prob: float64(i%11) / 10}
		if i%3 == 0 {
			answers[i].StdErr = 0.0125 * float64(i)
		}
	}
	answers[1].Prob = 1e-9 // an 'e'-form probability
	results := []core.Result{
		{Method: core.MethodRewrite},
		{Columns: []string{}, Answers: []core.Answer{}, Method: core.MethodExact},
		{Columns: []string{"id"}, Answers: answers[:1], Method: core.MethodExact, Degraded: []core.Degradation{}},
		{Columns: []string{"v"}, Answers: answers, Method: core.MethodMonteCarlo, Samples: 1000, StdErr: 0.0158,
			Degraded: []core.Degradation{{Method: core.MethodRewrite, Reason: "not-rewritable"}, {Method: core.MethodExact, Reason: "<budget>"}}},
		{Columns: []string{"v", "w"}, Answers: answers[2:9], Method: core.MethodMonteCarlo, Samples: 1, StdErr: 5e-7},
		{Columns: []string{"x"}, Answers: []core.Answer{{Prob: math.Copysign(0, -1), StdErr: math.Copysign(0, -1)}}, Method: core.MethodNone, StdErr: math.Copysign(0, -1)},
	}
	for ri := range results {
		for si, st := range statsVariants {
			rec := httptest.NewRecorder()
			srv.writeClean(rec, &results[ri], st)
			want, err := oracleClean(&results[ri], st)
			checkAgainstOracle(t, fmt.Sprintf("clean result#%d stats#%d", ri, si), rec, want, err)
		}
	}

	t.Run("tpch", func(t *testing.T) {
		d, err := uisgen.Generate(uisgen.Config{SF: 1, IF: 3, Scale: 0.0005, Seed: 42, Propagated: true, UniformProbs: true})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(d.Store, Config{Tenants: []TenantConfig{{Name: "acme", Key: "acme-key"}}, Registry: metrics.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		tn := srv.tenants["acme-key"]
		served := 0
		for _, q := range tpch.All() {
			if q.Number == 9 { // seconds a statement; the other twelve are milliseconds
				continue
			}
			var resp struct{ Stats QueryStats }
			post := func(path string) *httptest.ResponseRecorder {
				rec := doJSON(t, srv, "POST", path, "acme-key", queryRequest{SQL: q.SQL})
				if rec.Code != http.StatusOK {
					t.Fatalf("Q%d %s: status %d: %s", q.Number, path, rec.Code, rec.Body.String())
				}
				resp.Stats = QueryStats{}
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatalf("Q%d %s: %v", q.Number, path, err)
				}
				served++
				return rec
			}

			rec := post("/v1/query")
			direct, err := tn.eng.QueryCtx(context.Background(), q.SQL)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracleQuery(direct.Columns, direct.Rows, resp.Stats)
			checkAgainstOracle(t, fmt.Sprintf("Q%d /v1/query", q.Number), rec, want, err)

			rec = post("/v1/clean")
			stmt, err := sqlparse.Parse(q.SQL)
			if err != nil {
				t.Fatal(err)
			}
			clean, err := tn.ev.Eval(context.Background(), stmt, core.EvalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want, err = oracleClean(clean, resp.Stats)
			checkAgainstOracle(t, fmt.Sprintf("Q%d /v1/clean", q.Number), rec, want, err)
		}
		t.Logf("%d TPC-H responses byte-identical to encoding/json's", served)
	})
}

// FuzzResponseWriter checks one fuzzed row against the oracle on both
// endpoints: as a /v1/query row and as a clean answer whose probability
// and standard error are the fuzzed float.
func FuzzResponseWriter(f *testing.F) {
	f.Add(int64(0), 0.0, "", false, "id", uint8(0))
	f.Add(int64(math.MinInt64), math.Nextafter(1e21, 0), "<&>\"\\\x00\x1f\xff\xe2\x80\xa8", true, "c\xfe", uint8(0x1f))
	f.Add(int64(math.MaxInt64), 5e-324, "\xe2\x80\xa9\t\n", true, "", uint8(7))
	f.Add(int64(-7), math.Inf(1), "inf", false, "x", uint8(2))
	f.Fuzz(func(t *testing.T, i int64, fl float64, s string, b bool, col string, mask uint8) {
		// mask picks which kinds the row holds, so that rows of every
		// width and mix appear; a cleared bit is a NULL in that place.
		all := []value.Value{value.Int(i), value.Float(fl), value.Str(s), value.Bool(b)}
		var row []value.Value
		for k, v := range all {
			if mask&(1<<k) != 0 {
				row = append(row, v)
			} else if mask&(1<<(k+4)) != 0 {
				row = append(row, value.Null())
			}
		}
		st := QueryStats{Rows: 1, ExecMicros: i, QueuedMicros: int64(mask), Cached: b}
		srv := &Server{}
		rec := httptest.NewRecorder()
		srv.writeQuery(rec, []string{col, s}, [][]value.Value{row}, st)
		want, err := oracleQuery([]string{col, s}, [][]value.Value{row}, st)
		checkAgainstOracle(t, "query", rec, want, err)

		res := &core.Result{
			Columns: []string{col},
			Answers: []core.Answer{{Values: row, Prob: fl, StdErr: fl / 2}},
			Method:  core.MethodMonteCarlo,
			Samples: int(mask),
			StdErr:  fl,
		}
		if b {
			res.Degraded = []core.Degradation{{Method: core.MethodExact, Reason: s}}
		}
		rec = httptest.NewRecorder()
		srv.writeClean(rec, res, st)
		want, err = oracleClean(res, st)
		checkAgainstOracle(t, "clean", rec, want, err)
	})
}

// failingWriter is a client that goes away: its second Write fails, and
// it counts every Write made.
type failingWriter struct {
	header http.Header
	code   int
	writes int
}

func (w *failingWriter) Header() http.Header { return w.header }

func (w *failingWriter) WriteHeader(code int) { w.code = code }

func (w *failingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes >= 2 {
		return 0, errors.New("connection reset by peer")
	}
	return len(p), nil
}

// A client that goes away mid-response stops the writer: no panic, and
// no Write after the one that failed.
func TestResponseWriterStopsAtFirstWriteError(t *testing.T) {
	srv, err := New(bigStore(t, 3000), oneTenant(metrics.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/query", "/v1/clean"} {
		full := doJSON(t, srv, "POST", path, "acme-key", queryRequest{SQL: "select id, val from big"})
		if full.Code != http.StatusOK || full.Body.Len() < 4*chunkBytes {
			t.Fatalf("%s: status %d, %d bytes: want a 200 of several chunks", path, full.Code, full.Body.Len())
		}
		w := &failingWriter{header: http.Header{}}
		srv.ServeHTTP(w, newJSONRequest(t, "POST", path, "acme-key", queryRequest{SQL: "select id, val from big"}))
		if w.writes != 2 {
			t.Errorf("%s: %d Write calls, want 2: the writer must stop at the one that failed", path, w.writes)
		}
		if w.code != 0 && w.code != http.StatusOK {
			t.Errorf("%s: status %d", path, w.code)
		}
	}
}

// TestResponseEncodingAllocsDoNotGrowWithRows: the writer allocates per
// response, not per row or per value. Boxing each value into an any
// allocated once per non-NULL value plus once per row, so a result twice
// as long cost thousands more.
func TestResponseEncodingAllocsDoNotGrowWithRows(t *testing.T) {
	rowsOf := func(n int) [][]value.Value {
		rows := make([][]value.Value, n)
		for i := range rows {
			rows[i] = []value.Value{
				value.Int(int64(1000 + i)), value.Float(float64(i) + 0.25),
				value.Str(fmt.Sprintf("name <%d>", i)), value.Bool(i%2 == 0),
			}
		}
		return rows
	}
	cleanOf := func(rows [][]value.Value) *core.Result {
		res := &core.Result{Columns: []string{"a", "b", "c", "d"}, Method: core.MethodMonteCarlo, Samples: 100, StdErr: 0.05}
		for i, r := range rows {
			res.Answers = append(res.Answers, core.Answer{Values: r, Prob: float64(i%10) / 10, StdErr: 0.01})
		}
		return res
	}
	srv := &Server{}
	st := QueryStats{Rows: 1, ExecMicros: 10, QueuedMicros: 2, Parallelism: 2}
	rec := httptest.NewRecorder()
	rec.Body.Grow(1 << 20)
	measure := func(write func()) float64 {
		return testing.AllocsPerRun(20, func() {
			rec.Body.Reset()
			write()
		})
	}
	const n = 1000
	short, long := rowsOf(n), rowsOf(2*n)
	cols := []string{"a", "b", "c", "d"}
	q1 := measure(func() { srv.writeQuery(rec, cols, short, st) })
	q2 := measure(func() { srv.writeQuery(rec, cols, long, st) })
	shortClean, longClean := cleanOf(short), cleanOf(long)
	c1 := measure(func() { srv.writeClean(rec, shortClean, st) })
	c2 := measure(func() { srv.writeClean(rec, longClean, st) })
	t.Logf("/v1/query: %.0f allocations for %d rows, %.0f for %d; /v1/clean: %.0f and %.0f", q1, n, q2, 2*n, c1, c2)
	if q2-q1 > 2 || c2-c1 > 2 {
		t.Errorf("doubling the rows added %.0f allocations on /v1/query and %.0f on /v1/clean, want at most 2", q2-q1, c2-c1)
	}
	if rec.Code != http.StatusOK || !strings.HasSuffix(rec.Body.String(), "}}\n") {
		t.Errorf("status %d, body ends %q", rec.Code, rec.Body.String()[max(0, rec.Body.Len()-20):])
	}
}

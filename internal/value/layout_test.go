package value

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// TestValueIs16Bytes pins the layout: a tag-or-string pointer and one
// 8-byte payload. Every []Value in storage, slabs, keys, caches and results
// is sized by it, and Size is what the cache charges. A Value must not be
// comparable: == would compare a string's address, not its bytes.
func TestValueIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 16 || Size != 16 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, Size = %d, want 16", got, Size)
	}
	if reflect.TypeOf(Value{}).Comparable() {
		t.Fatal("Value is comparable: == would compare string addresses")
	}
	var zero Value
	if !zero.IsNull() || zero.Kind() != KindNull || !Identical(zero, Null()) || Hash(zero) != Hash(Null()) {
		t.Fatalf("the zero Value is not NULL: %v", zero)
	}
}

// layoutInputs are the values the layout test walks: every kind at the
// payloads where an overlaid representation could differ from separate
// fields (sign bit, all-ones, the float specials, empty string).
func layoutInputs() []Value {
	return []Value{
		Null(),
		Int(math.MinInt64), Int(-1), Int(0), Int(2), Int(math.MaxInt64),
		Float(math.Inf(-1)), Float(-2.5), Float(math.Copysign(0, -1)), Float(0), Float(2), Float(math.Inf(1)), Float(math.NaN()),
		Str(""), Str("a"), Str("b"),
		Bool(false), Bool(true),
	}
}

// TestRoundTripBitExact: what a constructor is given is what the accessor
// of that kind returns, bit for bit, and no other accessor answers.
func TestRoundTripBitExact(t *testing.T) {
	for _, v := range layoutInputs() {
		var back Value
		switch v.Kind() {
		case KindNull:
			back = Null()
		case KindInt:
			back = Int(v.AsInt())
			if float64(v.AsInt()) != v.AsFloat() {
				t.Errorf("%v: AsFloat does not widen AsInt", v)
			}
		case KindFloat:
			back = Float(v.AsFloat())
			if math.Float64bits(back.AsFloat()) != math.Float64bits(v.AsFloat()) {
				t.Errorf("%v: float bits changed on the way through", v)
			}
		case KindString:
			back = Str(v.AsString())
		case KindBool:
			back = Bool(v.AsBool())
		}
		if !Same(back, v) {
			t.Errorf("%v (%v) does not round-trip: %#v vs %#v", v, v.Kind(), back, v)
		}
		for name, get := range map[Kind]func(){
			KindInt:    func() { v.AsInt() },
			KindString: func() { v.AsString() },
			KindBool:   func() { v.AsBool() },
		} {
			if name == v.Kind() {
				continue
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%v: accessor of kind %v did not panic", v, name)
					}
				}()
				get()
			}()
		}
	}
	for _, c := range []struct {
		v    Value
		bits uint64
	}{
		{Float(math.Copysign(0, -1)), 1 << 63},
		{Float(math.Inf(1)), 0x7ff0000000000000},
		{Float(math.Inf(-1)), 0xfff0000000000000},
		{Float(math.NaN()), math.Float64bits(math.NaN())},
	} {
		if got := math.Float64bits(c.v.AsFloat()); got != c.bits {
			t.Errorf("%v: bits %#x, want %#x", c.v, got, c.bits)
		}
	}
	if Int(math.MinInt64).AsInt() != math.MinInt64 || Int(-1).AsInt() != -1 {
		t.Error("negative ints do not survive the payload")
	}
	if Str("").IsNull() || Str("").AsString() != "" {
		t.Error("the empty string is a string, not NULL")
	}
}

// TestSemanticsOfThe48ByteLayout holds Compare, Equal, Identical, Hash and
// String to what the previous layout (kind beside separate int64, float64,
// string and bool fields) gave on layoutInputs. The tables were printed by
// that code at commit 3161ef2, not derived from this one: row i, column j
// is inputs[i] against inputs[j]. They record, among the rest, that NULL
// sorts first and is Identical only to itself, that ints and floats compare
// by value (and NaN, comparing neither way, ties with every number), that
// kinds that do not compare order by tag, and that numerically equal ints
// and floats hash alike — -0.0 and 0 with Int(0), Float(2) with Int(2).
func TestSemanticsOfThe48ByteLayout(t *testing.T) {
	in := layoutInputs()
	compare := []string{
		"=<<<<<<<<<<<<<<<<<",
		">=<<<<><<<<<=<<<<<",
		">>=<<<>><<<<=<<<<<",
		">>>=<<>>==<<=<<<<<",
		">>>>=<>>>>=<=<<<<<",
		">>>>>=>>>>><=<<<<<",
		"><<<<<=<<<<<=<<<<<",
		">><<<<>=<<<<=<<<<<",
		">>>=<<>>==<<=<<<<<",
		">>>=<<>>==<<=<<<<<",
		">>>>=<>>>>=<=<<<<<",
		">>>>>>>>>>>==<<<<<",
		">============<<<<<",
		">>>>>>>>>>>>>=<<<<",
		">>>>>>>>>>>>>>=<<<",
		">>>>>>>>>>>>>>>=<<",
		">>>>>>>>>>>>>>>>=<",
		">>>>>>>>>>>>>>>>>=",
	}
	// B: Equal and Identical; I: Identical only; '.': neither.
	same := []string{
		"I.................",
		".B..........B.....",
		"..B.........B.....",
		"...B....BB..B.....",
		"....B.....B.B.....",
		".....B......B.....",
		"......B.....B.....",
		".......B....B.....",
		"...B....BB..B.....",
		"...B....BB..B.....",
		"....B.....B.B.....",
		"...........BB.....",
		".BBBBBBBBBBBB.....",
		".............B....",
		"..............B...",
		"...............B..",
		"................B.",
		".................B",
	}
	// Strings hash under a per-process seed: 0 stands for "not pinned".
	hash := []uint64{
		0x9e3779b97f4a7c15, // NULL
		0xc82fa664212416eb, // Int(MinInt64)
		0xa38931faeeb22117, // Int(-1)
		0xf2fea5823ed3a667, // Int(0)
		0x47051a6304094a4e, // Int(2)
		0xbbc56721dd6661e1, // Int(MaxInt64)
		0x5c149830e6bfa906, // Float(-Inf)
		0x91ff011cd9188b77, // Float(-2.5)
		0xf2fea5823ed3a667, // Float(-0.0)
		0xf2fea5823ed3a667, // Float(0)
		0x47051a6304094a4e, // Float(2)
		0xcba4b6c7079d152b, // Float(+Inf)
		0x19d5cae7058b4289, // Float(NaN)
		0, 0, 0,
		0x27220a95fe5cae5b, // false
		0x2545f4914f6cdd1d, // true
	}
	text := []string{"NULL", "-9223372036854775808", "-1", "0", "2", "9223372036854775807",
		"-Inf", "-2.5", "-0", "0", "2", "+Inf", "NaN", "", "a", "b", "false", "true"}
	sym := map[int]byte{-1: '<', 0: '=', 1: '>'}
	for i, a := range in {
		for j, b := range in {
			if got := sym[Compare(a, b)]; got != compare[i][j] {
				t.Errorf("Compare(%v %v, %v %v) = %c, the 48-byte layout gave %c", a.Kind(), a, b.Kind(), b, got, compare[i][j])
			}
			want := same[i][j]
			if got := Equal(a, b); got != (want == 'B') {
				t.Errorf("Equal(%v %v, %v %v) = %v", a.Kind(), a, b.Kind(), b, got)
			}
			if got := Identical(a, b); got != (want != '.') {
				t.Errorf("Identical(%v %v, %v %v) = %v", a.Kind(), a, b.Kind(), b, got)
			}
			if Identical(a, b) && !math.IsNaN(floatOr(a)) && !math.IsNaN(floatOr(b)) && Hash(a) != Hash(b) {
				t.Errorf("%v %v and %v %v are Identical and hash apart", a.Kind(), a, b.Kind(), b)
			}
		}
		if hash[i] != 0 && Hash(a) != hash[i] {
			t.Errorf("Hash(%v %v) = %#x, the 48-byte layout gave %#x", a.Kind(), a, Hash(a), hash[i])
		}
		if a.String() != text[i] {
			t.Errorf("String of %v input %d = %q, want %q", a.Kind(), i, a.String(), text[i])
		}
	}
	if Hash(Str("a")) != Hash(Str("a")) || Hash(Str("a")) == Hash(Str("b")) || Hash(Str("")) == Hash(Null()) {
		t.Error("string hashes: equal strings must agree, and a, b, \"\" and NULL should not collide")
	}
}

// floatOr is v as a float64, or 0 for a non-float: NaN ties with every
// number under Compare without hashing like any of them.
func floatOr(v Value) float64 {
	if v.Kind() == KindFloat {
		return v.AsFloat()
	}
	return 0
}

// sameInputs are layoutInputs plus the strings where a pointer-and-length
// representation could go wrong: equal bytes over separate backing arrays,
// a one-byte string converted from a byte, and zero-length substrings of
// a non-empty string at its start, middle and end.
func sameInputs() []Value {
	long := strings.Repeat("ab", 4)
	return append(layoutInputs(),
		Str(strings.Clone("a")), Str(string([]byte{'b'})), Str(long), Str(strings.Clone(long)),
		Str(long[:4]), Str(long[4:]), Str(long[0:0]), Str(long[3:3]), Str(long[len(long):]),
	)
}

// TestSameKeyAndHashAgree: Same is Key equality, a Key gives back a Value
// Same as the one it came from, Identical values hash alike, and the empty
// string is not NULL by any of them.
func TestSameKeyAndHashAgree(t *testing.T) {
	in := sameInputs()
	if a, b := Str(strings.Clone("ab")), Str(strings.Clone("ab")); a.p == b.p || !Same(a, b) || a.Key() != b.Key() {
		t.Fatal("equal strings over separate backing arrays: want distinct pointers, Same and equal Keys")
	}
	for i, a := range in {
		if back := a.Key().Value(); !Same(back, a) || back.Kind() != a.Kind() {
			t.Errorf("input %d: %v %v comes back from its Key as %v %v", i, a.Kind(), a, back.Kind(), back)
		}
		for j, b := range in {
			if Same(a, b) != (a.Key() == b.Key()) {
				t.Errorf("inputs %d, %d (%v %v, %v %v): Same %v, Keys equal %v", i, j, a.Kind(), a, b.Kind(), b, Same(a, b), a.Key() == b.Key())
			}
			if Same(a, b) && !Identical(a, b) && !math.IsNaN(floatOr(a)) {
				t.Errorf("inputs %d, %d: Same but not Identical", i, j)
			}
			if Identical(a, b) && !math.IsNaN(floatOr(a)) && !math.IsNaN(floatOr(b)) && Hash(a) != Hash(b) {
				t.Errorf("inputs %d, %d (%v %v, %v %v): Identical and hash apart", i, j, a.Kind(), a, b.Kind(), b)
			}
		}
	}
	empty := Str("")
	if empty.IsNull() || Same(empty, Null()) || empty.Key() == Null().Key() || Identical(empty, Null()) || Hash(empty) == Hash(Null()) {
		t.Error("the empty string is not distinct from NULL")
	}
	for _, s := range []string{"ab"[1:1], strings.Repeat("x", 9)[9:]} {
		if v := Str(s); !Same(v, empty) || v.Key() != empty.Key() || v.AsString() != "" {
			t.Error("a zero-length substring is not the empty string")
		}
	}
}

// TestStringValuesOutliveTheirBuilders: a string held only by a Value's
// pointer survives collections, and its bytes are not reused.
func TestStringValuesOutliveTheirBuilders(t *testing.T) {
	const n = 10000
	vs := make([]Value, n)
	for i := range vs {
		vs[i] = Str(fmt.Sprintf("value number %d, held only by its Value", i))
	}
	runtime.GC()
	runtime.GC()
	// Allocate strings of the same size over what a wrongly freed string
	// would have left, so that a lost one reads back someone else's bytes.
	junk := make([]string, n)
	for i := range junk {
		junk[i] = fmt.Sprintf("junk number %d, written after collecting", i)
	}
	for i, v := range vs {
		if got, want := v.AsString(), fmt.Sprintf("value number %d, held only by its Value", i); got != want {
			t.Fatalf("value %d reads %q after two collections, want %q", i, got, want)
		}
	}
	runtime.KeepAlive(junk)
}

package value

import (
	"math"
	"strings"
	"testing"
)

// FuzzValue builds a value of every kind from one input and holds it to
// the layout's contracts: it round-trips through its constructor and
// accessor, Same agrees with Key equality, Identical values hash alike,
// and Compare is antisymmetric and zero exactly on Identical values —
// against the layout inputs, against the same payload under every other
// kind, and against its own string copied to a separate backing array.
func FuzzValue(f *testing.F) {
	f.Add(uint8(KindNull), int64(0), uint64(0), "")
	f.Add(uint8(KindInt), int64(math.MinInt64), uint64(0), "")
	f.Add(uint8(KindFloat), int64(0), math.Float64bits(math.Copysign(0, -1)), "")
	f.Add(uint8(KindFloat), int64(2), math.Float64bits(math.NaN()), "2")
	f.Add(uint8(KindFloat), int64(0), uint64(0x7ff0000000000000), "")
	f.Add(uint8(KindString), int64(0), uint64(0), "")
	f.Add(uint8(KindString), int64(1), uint64(0), "a")
	f.Add(uint8(KindString), int64(-1), uint64(3), "日本語\xff")
	f.Add(uint8(KindBool), int64(1), uint64(1), "true")
	f.Fuzz(func(t *testing.T, kind uint8, i int64, bits uint64, s string) {
		k := Kind(kind % uint8(KindBool+1))
		v := build(k, i, bits, s)
		switch k {
		case KindNull:
			if !v.IsNull() {
				t.Fatalf("NULL reads %v", v.Kind())
			}
		case KindInt:
			if v.AsInt() != i {
				t.Fatalf("Int(%d) reads %d", i, v.AsInt())
			}
		case KindFloat:
			if got := math.Float64bits(v.AsFloat()); got != bits {
				t.Fatalf("Float bits %#x read %#x", bits, got)
			}
		case KindString:
			if v.AsString() != s {
				t.Fatalf("Str(%q) reads %q", s, v.AsString())
			}
		case KindBool:
			if v.AsBool() != (i&1 == 1) {
				t.Fatalf("Bool(%v) reads %v", i&1 == 1, v.AsBool())
			}
		}
		if v.Kind() != k {
			t.Fatalf("a %v reads kind %v", k, v.Kind())
		}
		others := layoutInputs()
		for o := KindNull; o <= KindBool; o++ {
			others = append(others, build(o, i, bits, s))
		}
		others = append(others, build(k, i, bits, strings.Clone(s)))
		for _, w := range others {
			if Same(v, w) != (v.Key() == w.Key()) {
				t.Fatalf("%v %v, %v %v: Same %v, Keys equal %v", v.Kind(), v, w.Kind(), w, Same(v, w), v.Key() == w.Key())
			}
			if back := w.Key().Value(); !Same(back, w) {
				t.Fatalf("%v %v comes back from its Key as %v %v", w.Kind(), w, back.Kind(), back)
			}
			c, r := Compare(v, w), Compare(w, v)
			if c != -r {
				t.Fatalf("Compare(%v %v, %v %v) = %d, reversed %d", v.Kind(), v, w.Kind(), w, c, r)
			}
			if Identical(v, w) != (c == 0) {
				t.Fatalf("Identical(%v %v, %v %v) = %v, Compare %d", v.Kind(), v, w.Kind(), w, Identical(v, w), c)
			}
			if Identical(v, w) && !math.IsNaN(floatOr(v)) && !math.IsNaN(floatOr(w)) && Hash(v) != Hash(w) {
				t.Fatalf("%v %v and %v %v are Identical and hash apart", v.Kind(), v, w.Kind(), w)
			}
		}
		if !Same(v, others[len(others)-1]) {
			t.Fatalf("%v %v is not Same as itself over a copied string", v.Kind(), v)
		}
	})
}

// build is the value of kind k that the fuzz inputs name.
func build(k Kind, i int64, bits uint64, s string) Value {
	switch k {
	case KindInt:
		return Int(i)
	case KindFloat:
		return Float(math.Float64frombits(bits))
	case KindString:
		return Str(s)
	case KindBool:
		return Bool(i&1 == 1)
	}
	return Null()
}

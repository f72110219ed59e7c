// Package value implements the typed value system used throughout the
// engine: nullable integers, floats, strings and booleans, with SQL-style
// comparison, arithmetic and hashing semantics.
//
// Dates are represented as strings in ISO-8601 form (YYYY-MM-DD); their
// lexicographic order coincides with chronological order, so no dedicated
// date kind is needed by the query subset this engine supports.
package value

import (
	"fmt"
	"hash/maphash"
	"math"
	"strconv"
	"strings"
	"unsafe"
)

// Kind enumerates the runtime types a Value can take.
type Kind uint8

const (
	// KindNull is the SQL NULL marker.
	KindNull Kind = iota
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindFloat is a 64-bit IEEE-754 float.
	KindFloat
	// KindString is an immutable UTF-8 string.
	KindString
	// KindBool is a boolean.
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "VARCHAR"
	case KindBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// ParseKind converts a SQL type name (as used in CREATE TABLE and the
// catalog files) into a Kind. It accepts the common synonyms.
func ParseKind(s string) (Kind, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT":
		return KindInt, nil
	case "FLOAT", "DOUBLE", "REAL", "DECIMAL", "NUMERIC":
		return KindFloat, nil
	case "VARCHAR", "CHAR", "TEXT", "STRING", "DATE":
		return KindString, nil
	case "BOOL", "BOOLEAN":
		return KindBool, nil
	default:
		return KindNull, fmt.Errorf("value: unknown type name %q", s)
	}
}

// Value is a dynamically typed SQL value. The zero Value is NULL. It is
// 16 bytes: a pointer p and one 8-byte payload n.
//
//   - NULL: p is nil.
//   - Int, Float, Bool: p is that kind's entry in tags, and n is the int,
//     the float's IEEE-754 bits, or 0/1 for the bool.
//   - the empty string: p is tags[KindString], n is 0.
//   - any other string: p is its first byte and n its length; the garbage
//     collector keeps the bytes alive through p, as through a string header.
//
// Values are not comparable (the zero-length func array sees to it): ==
// would compare a string's address rather than its bytes. Use Same for bit
// identity, Identical for GROUP BY equality, and Key for a map key.
type Value struct {
	_ [0]func()
	p unsafe.Pointer
	n uint64
}

// tags gives each non-NULL kind an address that no string's bytes can
// have; an entry's offset in the array is its kind.
var tags [KindBool + 1]byte

// tag is the p of kind k's values (of the empty string, for KindString).
func tag(k Kind) unsafe.Pointer { return unsafe.Pointer(&tags[k]) }

// Size is the size of a Value in bytes: what a []Value holds per element
// (a string's bytes come on top). The cache charges it.
const Size = int64(unsafe.Sizeof(Value{}))

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(i int64) Value { return Value{p: tag(KindInt), n: uint64(i)} }

// Float returns a float value.
func Float(f float64) Value { return Value{p: tag(KindFloat), n: math.Float64bits(f)} }

// Str returns a string value. Every empty string, a zero-length substring
// of a longer one included, gets the one empty-string tag.
func Str(s string) Value {
	if len(s) == 0 {
		return Value{p: tag(KindString)}
	}
	return Value{p: unsafe.Pointer(unsafe.StringData(s)), n: uint64(len(s))}
}

// Bool returns a boolean value.
func Bool(b bool) Value {
	if b {
		return Value{p: tag(KindBool), n: 1}
	}
	return Value{p: tag(KindBool)}
}

// The payload read back as each kind; callers have checked kind.
func (v Value) int() int64     { return int64(v.n) }
func (v Value) float() float64 { return math.Float64frombits(v.n) }
func (v Value) bool() bool     { return v.n != 0 }
func (v Value) str() string    { return unsafe.String((*byte)(v.p), int(v.n)) }

// Kind reports the runtime type of v. It is a few compares, not a load:
// the hot predicates below compare p with a tag instead.
func (v Value) Kind() Kind {
	if v.p == nil {
		return KindNull
	}
	if d := uintptr(v.p) - uintptr(unsafe.Pointer(&tags)); d < uintptr(len(tags)) {
		return Kind(d)
	}
	return KindString
}

// isStr reports whether v is a string: not NULL and not a tag other than
// the empty string's.
func (v Value) isStr() bool {
	return v.p != nil && v.p != tag(KindInt) && v.p != tag(KindFloat) && v.p != tag(KindBool)
}

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.p == nil }

// AsInt returns the integer payload. It panics unless Kind is KindInt.
func (v Value) AsInt() int64 {
	if v.p != tag(KindInt) {
		panic(misuse{KindInt, v.p}) //lint:allow nopanic -- documented accessor contract
	}
	return v.int()
}

// AsFloat returns the numeric payload widened to float64. It panics unless
// the value is numeric.
func (v Value) AsFloat() float64 {
	if v.p == tag(KindFloat) {
		return v.float()
	}
	if v.p != tag(KindInt) {
		panic(misuse{KindFloat, v.p}) //lint:allow nopanic -- documented accessor contract
	}
	return float64(v.int())
}

// AsString returns the string payload. It panics unless Kind is KindString.
func (v Value) AsString() string {
	if !v.isStr() {
		panic(misuse{KindString, v.p}) //lint:allow nopanic -- documented accessor contract
	}
	return v.str()
}

// AsBool returns the boolean payload. It panics unless Kind is KindBool.
func (v Value) AsBool() bool {
	if v.p != tag(KindBool) {
		panic(misuse{KindBool, v.p}) //lint:allow nopanic -- documented accessor contract
	}
	return v.bool()
}

// misuse is an accessor's panic: the accessor of kind want applied to a
// value of another kind, the one whose p it holds. The message is built
// when it is read, so that the accessors inline.
type misuse struct {
	want Kind
	p    unsafe.Pointer
}

func (m misuse) Error() string {
	name := [...]string{KindInt: "AsInt", KindFloat: "AsFloat", KindString: "AsString", KindBool: "AsBool"}[m.want]
	return "value: " + name + " on " + Value{p: m.p}.Kind().String()
}

// IsNumeric reports whether v is an int or a float.
func (v Value) IsNumeric() bool { return v.p == tag(KindInt) || v.p == tag(KindFloat) }

// Same reports whether a and b are the same value bit for bit: the same
// kind and payload, a float by its bits (so NaN is Same as NaN and -0 is
// not Same as 0), a string by its bytes wherever they sit.
func Same(a, b Value) bool {
	if a.p == b.p {
		return a.n == b.n
	}
	return a.n == b.n && a.isStr() && b.isStr() && a.str() == b.str()
}

// RowsSame reports element-wise Same over two rows of equal length.
func RowsSame(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !Same(a[i], b[i]) {
			return false
		}
	}
	return true
}

// Key is a comparable form of a Value, for map keys and ==: two Keys are
// equal exactly when their Values are Same.
type Key struct {
	kind Kind
	n    uint64
	s    string
}

// Key returns v's comparable form.
func (v Value) Key() Key {
	if k := v.Kind(); k != KindString {
		return Key{kind: k, n: v.n}
	}
	return Key{kind: KindString, s: v.str()}
}

// Value returns the Value k was made from (Same as it).
func (k Key) Value() Value {
	switch k.kind {
	case KindNull:
		return Null()
	case KindString:
		return Str(k.s)
	}
	return Value{p: tag(k.kind), n: k.n}
}

// String renders the value for display. NULL renders as "NULL"; floats use
// a compact decimal form.
func (v Value) String() string {
	switch v.Kind() {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.int(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	case KindString:
		return v.str()
	case KindBool:
		if v.bool() {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

// Parse converts the textual form s into a Value of the given kind. Empty
// strings parse to NULL for every kind, matching the CSV convention used by
// the storage layer.
func Parse(kind Kind, s string) (Value, error) {
	if s == "" {
		return Null(), nil
	}
	switch kind {
	case KindInt:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Null(), fmt.Errorf("value: parsing %q as INTEGER: %w", s, err)
		}
		return Int(i), nil
	case KindFloat:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Null(), fmt.Errorf("value: parsing %q as FLOAT: %w", s, err)
		}
		return Float(f), nil
	case KindString:
		return Str(s), nil
	case KindBool:
		b, err := strconv.ParseBool(s)
		if err != nil {
			return Null(), fmt.Errorf("value: parsing %q as BOOLEAN: %w", s, err)
		}
		return Bool(b), nil
	case KindNull:
		return Null(), nil
	default:
		return Null(), fmt.Errorf("value: cannot parse into %v", kind)
	}
}

// Compare orders a before b and returns -1, 0 or +1. Numeric kinds compare
// by value across int/float. NULL sorts before every non-NULL value (the
// ordering used by ORDER BY); use Equal or the comparison operators for
// SQL predicate semantics, where NULL never matches.
func Compare(a, b Value) int {
	if a.p == b.p {
		// One kind on both sides, or one string's bytes: a Same pair and
		// two ints answer without the kind.
		if a.n == b.n {
			return 0
		}
		if a.p == tag(KindInt) {
			if a.int() < b.int() {
				return -1
			}
			return 1
		}
	}
	ka, kb := a.Kind(), b.Kind()
	if ka == KindNull || kb == KindNull {
		switch {
		case ka == kb:
			return 0
		case ka == KindNull:
			return -1
		default:
			return 1
		}
	}
	if numeric(ka) && numeric(kb) {
		// Two ints share a tag and were answered above.
		af, bf := a.AsFloat(), b.AsFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	if ka != kb {
		// Incomparable kinds: order by kind tag so sorting is total.
		if ka < kb {
			return -1
		}
		return 1
	}
	switch ka {
	case KindString:
		return strings.Compare(a.str(), b.str())
	case KindBool:
		switch {
		case a.n == b.n:
			return 0
		case !a.bool():
			return -1
		default:
			return 1
		}
	}
	return 0
}

func numeric(k Kind) bool { return k == KindInt || k == KindFloat }

// Equal reports whether a and b are equal under predicate semantics: NULL
// is equal to nothing, including NULL.
func Equal(a, b Value) bool {
	if a.p == nil || b.p == nil {
		return false
	}
	return Compare(a, b) == 0
}

// Identical reports whether a and b are indistinguishable values, treating
// NULL as identical to NULL. It is the equality used by GROUP BY and
// DISTINCT.
func Identical(a, b Value) bool {
	if a.p == nil || b.p == nil {
		return a.p == b.p
	}
	return Compare(a, b) == 0
}

// arithmetic errors
var errNonNumeric = fmt.Errorf("value: arithmetic on non-numeric operand")

func arith(a, b Value, intOp func(int64, int64) (int64, error), floatOp func(float64, float64) float64) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null(), nil
	}
	if a.p == tag(KindInt) && b.p == tag(KindInt) {
		r, err := intOp(a.int(), b.int())
		if err != nil {
			return Null(), err
		}
		return Int(r), nil
	}
	if !a.IsNumeric() || !b.IsNumeric() {
		return Null(), errNonNumeric
	}
	return Float(floatOp(a.AsFloat(), b.AsFloat())), nil
}

// Add returns a + b with numeric widening; NULL propagates.
func Add(a, b Value) (Value, error) {
	return arith(a, b,
		func(x, y int64) (int64, error) { return x + y, nil },
		func(x, y float64) float64 { return x + y })
}

// Sub returns a - b with numeric widening; NULL propagates.
func Sub(a, b Value) (Value, error) {
	return arith(a, b,
		func(x, y int64) (int64, error) { return x - y, nil },
		func(x, y float64) float64 { return x - y })
}

// Mul returns a * b with numeric widening; NULL propagates.
func Mul(a, b Value) (Value, error) {
	return arith(a, b,
		func(x, y int64) (int64, error) { return x * y, nil },
		func(x, y float64) float64 { return x * y })
}

// Div returns a / b. Integer division of two ints truncates, as in SQL.
// Division by zero is an error; NULL propagates.
func Div(a, b Value) (Value, error) {
	return arith(a, b,
		func(x, y int64) (int64, error) {
			if y == 0 {
				return 0, fmt.Errorf("value: integer division by zero")
			}
			return x / y, nil
		},
		func(x, y float64) float64 { return x / y })
}

// Neg returns -a; NULL propagates.
func Neg(a Value) (Value, error) {
	switch a.p {
	case nil:
		return Null(), nil
	case tag(KindInt):
		return Int(-a.int()), nil
	case tag(KindFloat):
		return Float(-a.float()), nil
	}
	return Null(), errNonNumeric
}

var hashSeed = maphash.MakeSeed()

// Kind tags mixed into numeric hashes so values of different kinds rarely
// collide; chosen as arbitrary odd 64-bit constants.
const (
	hashNull  = 0x9e3779b97f4a7c15
	hashInt   = 0xbf58476d1ce4e5b9
	hashFloat = 0x94d049bb133111eb
	hashTrue  = 0x2545f4914f6cdd1d
	hashFalse = 0x27220a95fe5cae5b
)

// Hash returns a hash of v such that Identical values hash equally, with
// int/float numeric agreement (Int(2) and Float(2.0) hash the same because
// they compare equal). Numeric kinds use an inline splitmix64 finalizer;
// strings use hash/maphash's string fast path.
func Hash(v Value) uint64 {
	switch v.Kind() {
	case KindNull:
		return hashNull
	case KindInt:
		return mix64(v.n ^ hashInt)
	case KindFloat:
		f := v.float()
		//lint:allow floatcmp -- exact integrality test: hash equality must mirror exact Compare equality
		if f == math.Trunc(f) && f >= math.MinInt64 && f <= math.MaxInt64 {
			// Normalize integral floats to the int encoding so that
			// numeric equality implies hash equality.
			return mix64(uint64(int64(f)) ^ hashInt)
		}
		return mix64(v.n ^ hashFloat)
	case KindString:
		return maphash.String(hashSeed, v.str())
	case KindBool:
		if v.bool() {
			return hashTrue
		}
		return hashFalse
	}
	return 0
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed bijection.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// HashRow combines the hashes of a tuple of values.
func HashRow(vs []Value) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range vs {
		h ^= Hash(v)
		h *= 1099511628211
	}
	return h
}

// RowsIdentical reports element-wise Identical over two equal-length rows.
func RowsIdentical(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !Identical(a[i], b[i]) {
			return false
		}
	}
	return true
}

// CompareRows orders rows lexicographically using Compare.
func CompareRows(a, b []Value) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}

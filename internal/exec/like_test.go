package exec

import (
	"regexp"
	"strings"
	"testing"
)

// likeToRegexp is the translation LIKE ran on before likeMatch: a pattern
// as an anchored regexp, % as .* and _ as ., every other character quoted,
// newlines matched by both wildcards. It is kept as likeMatch's oracle.
func likeToRegexp(pattern string) (*regexp.Regexp, error) {
	var b strings.Builder
	b.WriteString("(?s)^")
	for _, r := range pattern {
		switch r {
		case '%':
			b.WriteString(".*")
		case '_':
			b.WriteString(".")
		default:
			b.WriteString(regexp.QuoteMeta(string(r)))
		}
	}
	b.WriteString("$")
	return regexp.Compile(b.String())
}

// TestLikeToRegexpAnchored pins that LIKE without wildcards matches the
// whole string, in the matcher and in its oracle alike.
func TestLikeToRegexpAnchored(t *testing.T) {
	re, err := likeToRegexp("bc")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"abcd", "bc"} {
		if want, got := s == "bc", likeMatch(s, "bc"); re.MatchString(s) != want || got != want {
			t.Errorf("%q LIKE 'bc': matcher %v, oracle %v, want %v", s, got, re.MatchString(s), want)
		}
	}
}

// TestLikeInvalidUTF8 pins the one rule for bytes that start no valid
// UTF-8 encoding: each is one character, U+FFFD, on either side.
func TestLikeInvalidUTF8(t *testing.T) {
	cases := []struct {
		s, pattern string
		want       bool
	}{
		{"\xff", "_", true},      // one invalid byte is one character
		{"\xff\xfe", "_", false}, // two are two
		{"\xff\xfe", "__", true},
		{"a\xffb", "a%b", true},  // % runs over it
		{"\xff", "\xfe", true},   // two invalid bytes are the same character
		{"\uFFFD", "\xff", true}, // and an invalid byte is U+FFFD
		{"\xff", "\uFFFD", true},
		{"\xe2\x82", "_", false}, // a truncated encoding is a character per byte
		{"\xe2\x82", "__", true},
		{"\xe2\x82\xac", "_", true}, // the whole encoding is one
		{"x\xe2\x82\xacy", "x_y", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.pattern); got != c.want {
			t.Errorf("%q LIKE %q = %v, want %v", c.s, c.pattern, got, c.want)
		}
	}
}

// FuzzLike checks likeMatch against the regexp translation it replaced.
func FuzzLike(f *testing.F) {
	seeds := [][2]string{
		{"", ""}, {"", "%"}, {"", "_"}, {"a", ""},
		{"abc", "%"}, {"abc", "%%"}, {"abc", "a%%c"}, {"abc", "_"}, {"abc", "___"},
		{"dark green metal", "%green%"}, {"LARGE BRASS", "%BRASS"}, {"PROMO1", "PROMO%"},
		{"aaab", "%a%ab"}, {"mississippi", "%s_i%p_"},
		{"a.c", "a.c"}, {"abc", "a.c"}, {"a+b(c)", "a+b(_)"}, {`a\b`, `a\_`},
		{"line\nbreak", "line%break"}, {"line\nbreak", "line_break"}, {"\n", "_"},
		{"héllo wörld", "h_llo%"}, {"日本語", "日_語"}, {"日本語", "%語"}, {"😀x", "_x"},
		{"\xff", "_"}, {"\xff\xfe", "_"}, {"a\xffb", "a%b"}, {"\xff", "\xfe"},
		{"\uFFFD", "\xff"}, {"\xe2\x82", "_"}, {"x\xe2\x82\xacy", "x_y"},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, s, pattern string) {
		re, err := likeToRegexp(pattern)
		if err != nil {
			t.Skip() // the oracle cannot compile it (a pattern too long for regexp)
		}
		if got, want := likeMatch(s, pattern), re.MatchString(s); got != want {
			t.Fatalf("%q LIKE %q = %v, the regexp translation says %v", s, pattern, got, want)
		}
	})
}

package sqlparse

import (
	"fmt"
	"strings"
)

// tokenKind classifies lexical tokens.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokSymbol // punctuation and operators
)

type token struct {
	kind tokenKind
	text string // keywords upper-cased; symbols canonical
	pos  int    // byte offset for error messages
}

// keywords recognized by the lexer (upper-case).
var keywords = [...]string{
	"SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER",
	"ASC", "DESC", "LIMIT", "AS", "AND", "OR", "NOT", "IN", "BETWEEN",
	"LIKE", "IS", "NULL", "TRUE", "FALSE",
}

// keyword returns the keyword word spells in any letter case — the list's
// own string, so recognizing one allocates nothing.
func keyword(word string) (string, bool) {
	for _, kw := range keywords {
		if len(kw) == len(word) && strings.EqualFold(kw, word) {
			return kw, true
		}
	}
	return "", false
}

// lexer turns SQL text into tokens. It supports -- line comments,
// single-quoted strings with ” escapes, and the operator set used by the
// grammar.
type lexer struct {
	src  string
	pos  int
	toks []token
}

func lex(src string) ([]token, error) {
	// One token per three bytes is a little over what SQL text averages,
	// so the slice is allocated once.
	l := &lexer{src: src, toks: make([]token, 0, len(src)/3+1)}
	for {
		l.skipSpaceAndComments()
		if l.pos >= len(l.src) {
			l.emit(tokEOF, "", l.pos)
			return l.toks, nil
		}
		start := l.pos
		c := l.src[l.pos]
		switch {
		case isIdentStart(rune(c)):
			l.lexIdent(start)
		case c >= '0' && c <= '9', c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
			if err := l.lexNumber(start); err != nil {
				return nil, err
			}
		case c == '\'':
			if err := l.lexString(start); err != nil {
				return nil, err
			}
		default:
			if err := l.lexSymbol(start); err != nil {
				return nil, err
			}
		}
	}
}

func (l *lexer) emit(kind tokenKind, text string, pos int) {
	l.toks = append(l.toks, token{kind: kind, text: text, pos: pos})
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			return
		}
	}
}

// isIdentStart accepts ASCII letters and underscore only: a non-ASCII
// byte must not start an identifier, or the lexer would consume zero
// bytes and loop forever (caught by the parser fuzz tests).
func isIdentStart(r rune) bool {
	return r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
}

func isIdentPart(c byte) bool {
	return c == '_' || c == '$' || isDigit(c) ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func (l *lexer) lexIdent(start int) {
	for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
		l.pos++
	}
	word := l.src[start:l.pos]
	if kw, ok := keyword(word); ok {
		l.emit(tokKeyword, kw, start)
	} else {
		l.emit(tokIdent, strings.ToLower(word), start) // word itself when already lower-case
	}
}

func (l *lexer) lexNumber(start int) error {
	seenDot := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if isDigit(c) {
			l.pos++
			continue
		}
		if c == '.' && !seenDot {
			seenDot = true
			l.pos++
			continue
		}
		break
	}
	text := l.src[start:l.pos]
	if text == "." {
		return fmt.Errorf("sqlparse: stray '.' at offset %d", start)
	}
	l.emit(tokNumber, text, start)
	return nil
}

// lexString emits the literal's text: a slice of the source unless it
// holds a doubled quote to undo.
func (l *lexer) lexString(start int) error {
	l.pos++ // opening quote
	body, doubled := l.pos, false
	for l.pos < len(l.src) {
		if l.src[l.pos] != '\'' {
			l.pos++
			continue
		}
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
			doubled = true
			l.pos += 2
			continue
		}
		text := l.src[body:l.pos]
		if doubled {
			text = strings.ReplaceAll(text, "''", "'")
		}
		l.pos++
		l.emit(tokString, text, start)
		return nil
	}
	return fmt.Errorf("sqlparse: unterminated string starting at offset %d", start)
}

func (l *lexer) lexSymbol(start int) error {
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "<=", ">=", "<>", "!=":
		canon := two
		if two == "!=" {
			canon = "<>"
		}
		l.pos += 2
		l.emit(tokSymbol, canon, start)
		return nil
	}
	c := l.src[l.pos]
	switch c {
	case '=', '<', '>', '+', '-', '*', '/', '(', ')', ',', '.':
		l.pos++
		l.emit(tokSymbol, l.src[start:l.pos], start)
		return nil
	}
	return fmt.Errorf("sqlparse: unexpected character %q at offset %d", c, start)
}

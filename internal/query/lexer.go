// Package query implements the temporal query language served by
// vtserve: a lexer, a recursive-descent parser producing an AST, and a
// canonical renderer whose output is the plan-cache key.
//
// A query is a pipeline: a relation scan followed by stages separated
// by '|', after the parser → planner → executor split of janus-datalog
// ("From Volcano to Lazy Sequences"):
//
//	scan r
//	  | select key = 3 and vt overlaps [10, 40]
//	  | join (scan s | select active = true) using sortmerge
//	  | diff scan revoked
//	  | project key, name
//	  | aggregate count
//
// Keywords are case-insensitive; relation and column names are
// case-sensitive identifiers. '#' starts a comment running to end of
// line. Within predicates the words and/or/not/vt (any case) are
// reserved and cannot name columns.
package query

import (
	"fmt"
	"strconv"
	"strings"
)

type tokKind int

const (
	tEOF tokKind = iota
	tIdent
	tInt
	tFloat
	tString
	tPipe   // |
	tLParen // (
	tRParen // )
	tLBrack // [
	tRBrack // ]
	tComma  // ,
	tEq     // =
	tNe     // !=
	tLt     // <
	tLe     // <=
	tGt     // >
	tGe     // >=
)

func (k tokKind) String() string {
	switch k {
	case tEOF:
		return "end of query"
	case tIdent:
		return "identifier"
	case tInt:
		return "integer"
	case tFloat:
		return "float"
	case tString:
		return "string"
	case tPipe:
		return "'|'"
	case tLParen:
		return "'('"
	case tRParen:
		return "')'"
	case tLBrack:
		return "'['"
	case tRBrack:
		return "']'"
	case tComma:
		return "','"
	case tEq:
		return "'='"
	case tNe:
		return "'!='"
	case tLt:
		return "'<'"
	case tLe:
		return "'<='"
	case tGt:
		return "'>'"
	case tGe:
		return "'>='"
	}
	return "invalid token"
}

type token struct {
	kind tokKind
	text string  // ident text (case preserved) or string value
	i    int64   // tInt
	f    float64 // tFloat
	line int
	col  int
}

func (t token) describe() string {
	switch t.kind {
	case tIdent:
		return fmt.Sprintf("%q", t.text)
	case tString:
		return fmt.Sprintf("string %q", t.text)
	case tInt:
		return fmt.Sprintf("integer %d", t.i)
	case tFloat:
		return fmt.Sprintf("float %g", t.f)
	}
	return t.kind.String()
}

// keyword returns the lower-cased ident text, or "" for non-idents —
// the form keywords are matched in.
func (t token) keyword() string {
	if t.kind != tIdent {
		return ""
	}
	return strings.ToLower(t.text)
}

// Error is a syntax or compile error with its position in the query
// text.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string { return fmt.Sprintf("query: %d:%d: %s", e.Line, e.Col, e.Msg) }

func errAt(line, col int, format string, args ...any) *Error {
	return &Error{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

type lexer struct {
	src       string
	pos       int
	line, col int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1, col: 1} }

func (l *lexer) peekByte() (byte, bool) {
	if l.pos >= len(l.src) {
		return 0, false
	}
	return l.src[l.pos], true
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *lexer) skipSpace() {
	for {
		c, ok := l.peekByte()
		if !ok {
			return
		}
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '#': // comment to end of line
			for {
				c, ok := l.peekByte()
				if !ok || c == '\n' {
					break
				}
				l.advance()
			}
		default:
			return
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isIdentRest(c byte) bool { return isIdentStart(c) || ('0' <= c && c <= '9') }

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// next scans one token.
func (l *lexer) next() (token, error) {
	l.skipSpace()
	line, col := l.line, l.col
	c, ok := l.peekByte()
	if !ok {
		return token{kind: tEOF, line: line, col: col}, nil
	}
	switch {
	case isIdentStart(c):
		start := l.pos
		for {
			c, ok := l.peekByte()
			if !ok || !isIdentRest(c) {
				break
			}
			l.advance()
		}
		return token{kind: tIdent, text: l.src[start:l.pos], line: line, col: col}, nil
	case isDigit(c), c == '-':
		return l.number(line, col)
	case c == '"':
		return l.stringLit(line, col)
	}
	l.advance()
	mk := func(k tokKind) (token, error) { return token{kind: k, line: line, col: col}, nil }
	switch c {
	case '|':
		return mk(tPipe)
	case '(':
		return mk(tLParen)
	case ')':
		return mk(tRParen)
	case '[':
		return mk(tLBrack)
	case ']':
		return mk(tRBrack)
	case ',':
		return mk(tComma)
	case '=':
		return mk(tEq)
	case '!':
		if c, ok := l.peekByte(); ok && c == '=' {
			l.advance()
			return mk(tNe)
		}
		return token{}, errAt(line, col, "unexpected '!' (want '!=')")
	case '<':
		if c, ok := l.peekByte(); ok && c == '=' {
			l.advance()
			return mk(tLe)
		}
		return mk(tLt)
	case '>':
		if c, ok := l.peekByte(); ok && c == '=' {
			l.advance()
			return mk(tGe)
		}
		return mk(tGt)
	}
	return token{}, errAt(line, col, "unexpected character %q", string(rune(c)))
}

func (l *lexer) number(line, col int) (token, error) {
	start := l.pos
	if c, _ := l.peekByte(); c == '-' {
		l.advance()
		if c, ok := l.peekByte(); !ok || !isDigit(c) {
			return token{}, errAt(line, col, "unexpected '-' (want a number)")
		}
	}
	isFloat := false
	for {
		c, ok := l.peekByte()
		if !ok {
			break
		}
		if isDigit(c) {
			l.advance()
			continue
		}
		if (c == '.' || c == 'e' || c == 'E') ||
			(isFloat && (c == '+' || c == '-') && (l.src[l.pos-1] == 'e' || l.src[l.pos-1] == 'E')) {
			isFloat = true
			l.advance()
			continue
		}
		break
	}
	text := l.src[start:l.pos]
	if isFloat {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return token{}, errAt(line, col, "bad float %q", text)
		}
		return token{kind: tFloat, f: f, line: line, col: col}, nil
	}
	i, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return token{}, errAt(line, col, "bad integer %q", text)
	}
	return token{kind: tInt, i: i, line: line, col: col}, nil
}

func (l *lexer) stringLit(line, col int) (token, error) {
	l.advance() // opening quote
	var b strings.Builder
	for {
		c, ok := l.peekByte()
		if !ok || c == '\n' {
			return token{}, errAt(line, col, "unterminated string")
		}
		l.advance()
		switch c {
		case '"':
			return token{kind: tString, text: b.String(), line: line, col: col}, nil
		case '\\':
			e, ok := l.peekByte()
			if !ok {
				return token{}, errAt(line, col, "unterminated string")
			}
			l.advance()
			switch e {
			case '"', '\\':
				b.WriteByte(e)
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			default:
				return token{}, errAt(line, col, `bad escape \%s in string`, string(rune(e)))
			}
		default:
			b.WriteByte(c)
		}
	}
}

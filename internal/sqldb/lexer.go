package sqldb

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// tokenKind enumerates lexical token kinds.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokInt
	tokString
	tokOp    // punctuation and operators
	tokParam // ?
)

// token is one lexical token.
type token struct {
	kind tokenKind
	text string // keyword/ident text is upper-cased for keywords, raw for idents
	val  int64  // for tokInt
	str  string // for tokString
	pos  int    // byte offset in input
}

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "INSERT": true, "INTO": true,
	"VALUES": true, "UPDATE": true, "SET": true, "DELETE": true, "CREATE": true,
	"TABLE": true, "INDEX": true, "ON": true, "ALTER": true, "ADD": true,
	"COLUMN": true, "DROP": true, "AND": true, "OR": true, "NOT": true,
	"NULL": true, "IS": true, "IN": true, "LIKE": true, "ORDER": true,
	"BY": true, "ASC": true, "DESC": true, "LIMIT": true, "OFFSET": true,
	"DISTINCT": true, "AS": true, "PRIMARY": true, "KEY": true, "UNIQUE": true,
	"INTEGER": true, "INT": true, "TEXT": true, "VARCHAR": true, "BOOLEAN": true,
	"BOOL": true, "TRUE": true, "FALSE": true, "DEFAULT": true, "RETURNING": true,
	"IF": true, "EXISTS": true, "CONSTRAINT": true, "BETWEEN": true, "KEEP": true,
}

// lexer splits SQL text into tokens.
type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex tokenizes src. It returns an error describing the first invalid
// character or unterminated literal.
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		tok, err := l.next()
		if err != nil {
			return nil, err
		}
		l.toks = append(l.toks, tok)
		if tok.kind == tokEOF {
			return l.toks, nil
		}
	}
}

func (l *lexer) errorf(pos int, format string, args ...any) error {
	return fmt.Errorf("sql: lex error at offset %d: %s", pos, fmt.Sprintf(format, args...))
}

func (l *lexer) next() (token, error) {
	// Skip whitespace and comments.
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
			goto scan
		}
	}
scan:
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case c == '\'':
		return l.scanString()
	case c >= '0' && c <= '9':
		return l.scanNumber()
	case isIdentStart(rune(c)):
		return l.scanWord()
	case c == '?':
		l.pos++
		return token{kind: tokParam, text: "?", pos: start}, nil
	}
	// Operators, longest match first.
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "!=", "<>", "<=", ">=", "||":
		l.pos += 2
		t := two
		if t == "<>" {
			t = "!="
		}
		return token{kind: tokOp, text: t, pos: start}, nil
	}
	switch c {
	case '=', '<', '>', '+', '-', '*', '/', '%', '(', ')', ',', '.', ';':
		l.pos++
		return token{kind: tokOp, text: string(c), pos: start}, nil
	}
	return token{}, l.errorf(start, "unexpected character %q", c)
}

func (l *lexer) scanString() (token, error) {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				b.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			return token{kind: tokString, str: b.String(), pos: start}, nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return token{}, l.errorf(start, "unterminated string literal")
}

func (l *lexer) scanNumber() (token, error) {
	start := l.pos
	for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
		l.pos++
	}
	text := l.src[start:l.pos]
	n, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return token{}, l.errorf(start, "invalid integer %q", text)
	}
	return token{kind: tokInt, val: n, text: text, pos: start}, nil
}

func (l *lexer) scanWord() (token, error) {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
		l.pos++
	}
	word := l.src[start:l.pos]
	upper := strings.ToUpper(word)
	if keywords[upper] {
		return token{kind: tokKeyword, text: upper, pos: start}, nil
	}
	return token{kind: tokIdent, text: word, pos: start}, nil
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

package dataflow

import (
	"fmt"
	"strings"
	"unicode"
)

// tokKind classifies lexer tokens of the dataflow DSL.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokInt
	tokLParen
	tokRParen
	tokLBrace
	tokRBrace
	tokComma
	tokSemi
	tokColon
	tokPlus
	tokMinus
	tokStar
)

func (k tokKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokInt:
		return "integer"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokLBrace:
		return "'{'"
	case tokRBrace:
		return "'}'"
	case tokComma:
		return "','"
	case tokSemi:
		return "';'"
	case tokColon:
		return "':'"
	case tokPlus:
		return "'+'"
	case tokMinus:
		return "'-'"
	case tokStar:
		return "'*'"
	}
	return "?"
}

// token is one lexeme with its source line for error reporting.
type token struct {
	kind tokKind
	text string
	line int
}

// lexer tokenizes DSL source. It strips //-to-end-of-line and /* */
// comments.
type lexer struct {
	src  string
	pos  int
	line int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1} }

func (lx *lexer) errorf(format string, args ...any) error {
	return fmt.Errorf("line %d: %s", lx.line, fmt.Sprintf(format, args...))
}

// next returns the next token.
func (lx *lexer) next() (token, error) {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case c == '\n':
			lx.line++
			lx.pos++
		case c == ' ' || c == '\t' || c == '\r':
			lx.pos++
		case c == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '/':
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.pos++
			}
		case c == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '*':
			end := strings.Index(lx.src[lx.pos+2:], "*/")
			if end < 0 {
				return token{}, lx.errorf("unterminated block comment")
			}
			lx.line += strings.Count(lx.src[lx.pos:lx.pos+2+end+2], "\n")
			lx.pos += 2 + end + 2
		default:
			return lx.scan()
		}
	}
	return token{kind: tokEOF, line: lx.line}, nil
}

func (lx *lexer) scan() (token, error) {
	c := lx.src[lx.pos]
	if k := punct(c); k != tokEOF {
		lx.pos++
		return token{kind: k, text: lx.src[lx.pos-1 : lx.pos], line: lx.line}, nil
	}
	if c >= '0' && c <= '9' {
		start := lx.pos
		seenDot := false
		for lx.pos < len(lx.src) {
			ch := lx.src[lx.pos]
			if ch >= '0' && ch <= '9' {
				lx.pos++
				continue
			}
			if ch == '.' && !seenDot && lx.pos+1 < len(lx.src) &&
				lx.src[lx.pos+1] >= '0' && lx.src[lx.pos+1] <= '9' {
				seenDot = true
				lx.pos++
				continue
			}
			break
		}
		return token{kind: tokInt, text: lx.src[start:lx.pos], line: lx.line}, nil
	}
	if isIdentStart(rune(c)) {
		start := lx.pos
		for lx.pos < len(lx.src) && isIdentPart(rune(lx.src[lx.pos])) {
			lx.pos++
		}
		return token{kind: tokIdent, text: lx.src[start:lx.pos], line: lx.line}, nil
	}
	return token{}, lx.errorf("unexpected character %q", c)
}

// punct returns the kind of a single-character token, or tokEOF when c
// starts none.
func punct(c byte) tokKind {
	switch c {
	case '(':
		return tokLParen
	case ')':
		return tokRParen
	case '{':
		return tokLBrace
	case '}':
		return tokRBrace
	case ',':
		return tokComma
	case ';':
		return tokSemi
	case ':':
		return tokColon
	case '+':
		return tokPlus
	case '-':
		return tokMinus
	case '*':
		return tokStar
	}
	return tokEOF
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '\''
}

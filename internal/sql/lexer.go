// Package sql implements a small SQL front end for star queries: the
// SELECT/FROM/WHERE/GROUP BY/ORDER BY subset that covers the Star Schema
// Benchmark, parsed and bound against a star-schema catalog into the
// engine-neutral core.Query both engines execute. The paper writes queries
// as Java MapReduce programs (Figure 4); this package is the convenience
// layer a downstream user would expect.
package sql

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexer output.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol // ( ) , ; = < > <= >= <> + - * /
)

type token struct {
	kind tokenKind
	text string // identifiers lowercased; strings unquoted
	pos  int
}

// lex splits the input into tokens. SQL keywords are returned as tokIdent
// and matched case-insensitively by the parser.
func lex(input string) ([]token, error) {
	toks := make([]token, 0, len(input)/4+1) // a token with its spacing is rarely under four bytes
	i := 0
	for i < len(input) {
		c := rune(input[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case c == '\'':
			j := i + 1
			for j < len(input) && input[j] != '\'' {
				j++
			}
			if j >= len(input) {
				return nil, fmt.Errorf("sql: unterminated string literal at offset %d", i)
			}
			toks = append(toks, token{kind: tokString, text: input[i+1 : j], pos: i})
			i = j + 1
		case unicode.IsDigit(c):
			j := i
			for j < len(input) && (unicode.IsDigit(rune(input[j])) || input[j] == '.') {
				j++
			}
			toks = append(toks, token{kind: tokNumber, text: input[i:j], pos: i})
			i = j
		case unicode.IsLetter(c) || c == '_':
			j := i
			for j < len(input) && (unicode.IsLetter(rune(input[j])) || unicode.IsDigit(rune(input[j])) || input[j] == '_') {
				j++
			}
			toks = append(toks, token{kind: tokIdent, text: lowerIdent(input[i:j]), pos: i})
			i = j
		case strings.ContainsRune("(),;=+-*/", c):
			toks = append(toks, token{kind: tokSymbol, text: input[i : i+1], pos: i})
			i++
		case c == '<':
			if i+1 < len(input) && (input[i+1] == '=' || input[i+1] == '>') {
				toks = append(toks, token{kind: tokSymbol, text: input[i : i+2], pos: i})
				i += 2
			} else {
				toks = append(toks, token{kind: tokSymbol, text: "<", pos: i})
				i++
			}
		case c == '>':
			if i+1 < len(input) && input[i+1] == '=' {
				toks = append(toks, token{kind: tokSymbol, text: ">=", pos: i})
				i += 2
			} else {
				toks = append(toks, token{kind: tokSymbol, text: ">", pos: i})
				i++
			}
		default:
			return nil, fmt.Errorf("sql: unexpected character %q at offset %d", c, i)
		}
	}
	toks = append(toks, token{kind: tokEOF, pos: len(input)})
	return toks, nil
}

// keywords are the words the parser matches, each its own lower-case
// spelling. maxKeyword is the longest one's length.
var keywords = map[string]string{
	"select": "select", "sum": "sum", "as": "as", "from": "from", "where": "where",
	"and": "and", "between": "between", "in": "in", "group": "group", "order": "order",
	"by": "by", "asc": "asc", "desc": "desc",
}

const maxKeyword = len("between")

// lowerIdent is word in lower case without a new string where it can: a
// keyword in any case is the keyword's own string, and strings.ToLower
// returns a word with no upper-case letter as it is.
func lowerIdent(word string) string {
	if len(word) <= maxKeyword {
		var buf [maxKeyword]byte
		for i := 0; i < len(word); i++ {
			c := word[i]
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			buf[i] = c
		}
		if kw, ok := keywords[string(buf[:len(word)])]; ok {
			return kw
		}
	}
	return strings.ToLower(word)
}

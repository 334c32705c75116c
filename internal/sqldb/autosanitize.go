package sqldb

import (
	"fmt"

	"resin/internal/core"
	"resin/internal/sanitize"
)

// LexAutoSanitize is the §5.3 "variation on the second strategy": a
// tokenizer that keeps contiguous bytes carrying the UntrustedData policy
// in the same token, automatically sanitizing untrusted data in transit
// to the database. Untrusted bytes can never contribute to the query's
// structure:
//
//   - at the top level, a maximal run of untrusted bytes becomes a single
//     string-literal token, whatever characters it contains;
//
//   - inside a string literal, untrusted quote and backslash characters
//     are ordinary content — only trusted quotes terminate the literal,
//     so a "quote breakout" payload stays inside the value.
//
// Trusted bytes lex exactly as in Lex — including `?` and `:name`
// binding placeholders, which only trusted bytes can form: an untrusted
// `?` or `:` is swallowed into a value token like any other untrusted
// byte, so attacker input can never mint a binding slot.
func LexAutoSanitize(q core.String) ([]Token, error) {
	lexCalls.Add(1)
	src := q.Raw()
	untrusted := func(i int) bool {
		return q.PoliciesAt(i).Any(sanitize.IsUntrusted)
	}
	toks := make([]Token, 0, tokenCapHint(src))
	i := 0
	for i < len(src) {
		if untrusted(i) {
			// Maximal untrusted run → one value token.
			j := i
			var b core.Builder
			for j < len(src) && untrusted(j) {
				c, ps := q.ByteAt(j)
				b.AppendBytePolicies(c, ps)
				j++
			}
			toks = append(toks, Token{Type: TokString, Text: src[i:j], Value: b.String(), Start: i, End: j})
			i = j
			continue
		}
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < len(src) && src[i+1] == '-':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '\'':
			tok, next, err := lexStringAutoSanitize(q, src, i, untrusted)
			if err != nil {
				return nil, err
			}
			toks = append(toks, tok)
			i = next
		default:
			// Delegate a single trusted token to the plain lexer,
			// clipping at the next untrusted byte so untrusted input can
			// never influence trusted tokenization.
			clip := len(src)
			for j := i; j < len(src); j++ {
				if untrusted(j) {
					clip = j
					break
				}
			}
			tok, next, err := lexOneTrusted(q, src, i, clip)
			if err != nil {
				return nil, err
			}
			if tok.Type == TokEOF || next <= i {
				return nil, &LexError{Offset: i, Msg: "auto-sanitize scan stalled"}
			}
			toks = append(toks, tok)
			i = next
		}
	}
	toks = append(toks, Token{Type: TokEOF, Start: len(src), End: len(src)})
	if err := numberPlaceholders(toks); err != nil {
		return nil, err
	}
	return toks, nil
}

// lexStringAutoSanitize lexes a string literal opened by a trusted quote;
// untrusted bytes inside are always content (no escape or terminator
// semantics), while trusted bytes keep the normal escape rules.
func lexStringAutoSanitize(q core.String, src string, i int, untrusted func(int) bool) (Token, int, error) {
	start := i
	i++ // trusted opening quote
	var val core.Builder
	for i < len(src) {
		c, ps := q.ByteAt(i)
		if untrusted(i) {
			val.AppendBytePolicies(c, ps)
			i++
			continue
		}
		switch c {
		case '\'':
			if i+1 < len(src) && src[i+1] == '\'' && !untrusted(i+1) {
				val.AppendBytePolicies('\'', ps)
				i += 2
				continue
			}
			return Token{Type: TokString, Text: src[start : i+1], Value: val.String(), Start: start, End: i + 1}, i + 1, nil
		case '\\':
			if i+1 >= len(src) {
				return Token{}, 0, &LexError{Offset: i, Msg: "dangling backslash in string"}
			}
			_, nps := q.ByteAt(i + 1)
			val.AppendBytePolicies(src[i+1], nps)
			i += 2
		default:
			val.AppendBytePolicies(c, ps)
			i++
		}
	}
	return Token{}, 0, &LexError{Offset: start, Msg: "unterminated string literal"}
}

// lexOneTrusted lexes exactly one token of fully-trusted input starting
// at offset i, stopping trusted scanning at clip (the next untrusted
// byte) so untrusted bytes can never extend a trusted token.
func lexOneTrusted(q core.String, src string, i, clip int) (Token, int, error) {
	return scanToken(q, src, i, clip)
}

// ParseAutoSanitized parses a query with the auto-sanitizing tokenizer.
func ParseAutoSanitized(q core.String) (Statement, error) {
	toks, err := LexAutoSanitize(q)
	if err != nil {
		return nil, err
	}
	stmt, err := ParseTokens(toks)
	if err != nil {
		return nil, fmt.Errorf("sqldb: auto-sanitized parse: %w", err)
	}
	return stmt, nil
}

package sqldb

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"resin/internal/core"
)

// The plan cache: every query compiles through it (stmt.go), text
// queries and prepared statements alike.
//
// Applications in this codebase (and the PHP applications the paper
// interposes on) issue the same query *shapes* over and over with
// different literal values — HotCRP's per-row SELECTs, the forum's
// per-message lookups. The seed engine re-tokenized and re-parsed every
// one. The plan cache instead keys on the canonical token stream with
// string and number literals replaced by parameter slots, parses that
// parameterized stream once into a template AST, and on every later hit
// binds the current literal tokens into a fresh statement — no parser
// involved (ParseCount pins this down in tests).
//
// Literal values still flow through per execution, carrying their
// per-character policies, so taint tracking and policy persistence are
// unaffected by caching: only the *structure* is reused, and structure
// is exactly the part the injection assertions require to be untrusted-
// free.
//
// Schema-derived state (which policy columns exist for the statement's
// table) is cached per plan keyed on the engine's schema generation;
// any CREATE/DROP of a table or index stamps a fresh generation, so
// plans recompile their schema conclusions instead of reusing stale
// ones (see docs/SQL.md for the invalidation rules).

// planCacheCap bounds the number of cached templates. Applications use a
// fixed set of query shapes, so the cap exists only to keep adversarial
// or generated workloads from growing the table without bound. The
// cache is a core.GenCache: churned shapes age out a generation at a
// time while the shapes in use keep getting promoted.
const planCacheCap = 1024

// planModeStandard and planModeAutoSanitize prefix cache keys so the two
// tokenizers (Lex and LexAutoSanitize) never share a template: the same
// raw bytes can tokenize differently under the auto-sanitizing lexer.
const (
	planModeStandard     = 'n'
	planModeAutoSanitize = 'a'
)

// PlanCacheStats reports plan cache effectiveness. Invalidations counts
// schema-generation misses: executions that found a cached template but
// had to recompute its schema-derived state because a CREATE/DROP ran
// since it was compiled.
type PlanCacheStats struct {
	Hits, Misses, Invalidations uint64
}

// cachedPlan is one compiled query template.
type cachedPlan struct {
	tmpl Statement // parameterized AST; shared, never mutated

	// Schema-derived compilation state, guarded by mu: pcols is the
	// policy-column set of the statement's table as of generation gen.
	mu    sync.Mutex
	gen   uint64
	pcols map[string]bool
}

// planCache maps parameterized token-stream keys to compiled templates.
// The map is read-mostly (every query looks up, only compiles insert),
// and a hit takes only the cache's read lock, so concurrent cached
// SELECTs stay parallel end to end — the engine's own read path runs
// under RLock too.
type planCache struct {
	m *core.GenCache[string, *cachedPlan]

	hits          atomic.Uint64
	misses        atomic.Uint64
	invalidations atomic.Uint64
}

func newPlanCache() *planCache {
	return &planCache{m: core.NewGenCache[string, *cachedPlan](planCacheCap, 0, nil)}
}

func (c *planCache) stats() PlanCacheStats {
	return PlanCacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Invalidations: c.invalidations.Load(),
	}
}

// reset empties the cache (tests and benchmarks).
func (c *planCache) reset() { c.m.Reset() }

// literalSlots classifies which tokens of a stream are bindable literal
// slots. It is the single source of truth for planKey and parameterize:
// both derive from it, so slot numbering in templates can never drift
// from the key's '?' positions. String and number literals are slots,
// and so are binding placeholders (`?` and `:name`) — a spliced query
// and its prepared form therefore share one cache key and one template.
// Inline LIMIT counts are the exception: the parser folds those into
// the plan itself, so they cannot be bound per execution; distinct
// inline limits simply get distinct plans. A `LIMIT ?` placeholder *is*
// a slot (the template carries Select.LimitExpr and binding resolves
// it), so prepared statements vary the limit without growing the cache.
func literalSlots(toks []Token) []bool {
	slots := make([]bool, len(toks))
	prevLimit := false
	for i, t := range toks {
		slots[i] = t.Type == TokString || t.Type == TokPlaceholder || (t.Type == TokNumber && !prevLimit)
		prevLimit = t.Type == TokKeyword && t.Keyword() == "LIMIT"
	}
	return slots
}

// countPlaceholders returns the number of binding ordinals in a token
// stream — the arguments an execution must supply. Repeated `:name`
// placeholders share one ordinal, so the count is distinct ordinals,
// not placeholder tokens.
func countPlaceholders(toks []Token) int {
	n := 0
	for _, t := range toks {
		if t.Type == TokPlaceholder && t.ParamIdx+1 > n {
			n = t.ParamIdx + 1
		}
	}
	return n
}

// placeholderNames returns the name of each binding ordinal, indexed by
// ordinal; nil when every placeholder is the positional `?` form.
func placeholderNames(toks []Token) []string {
	var out []string
	for _, t := range toks {
		if t.Type == TokPlaceholder && t.Name != "" {
			if out == nil {
				out = make([]string, countPlaceholders(toks))
			}
			out[t.ParamIdx] = t.Name
		}
	}
	return out
}

// planKey renders the canonical parameterized form of a token stream:
// keywords upper-cased, identifiers lower-cased, literal slots replaced
// by '?' (their tokens collected into lits), tokens separated by NUL.
func planKey(toks []Token, mode byte) (key string, lits []Token) {
	slots := literalSlots(toks)
	var b strings.Builder
	b.Grow(len(toks) * 8)
	b.WriteByte(mode)
	for i, t := range toks {
		if t.Type == TokEOF {
			break
		}
		b.WriteByte(0)
		switch {
		case slots[i]:
			b.WriteByte('?')
			lits = append(lits, t)
		case t.Type == TokKeyword:
			b.WriteString(t.Keyword())
		case t.Type == TokIdent:
			b.WriteString(strings.ToLower(t.Text))
		default:
			b.WriteString(t.Text)
		}
	}
	return b.String(), lits
}

// parameterize rewrites the literal slots of a stream into TokParam
// tokens numbered in stream order (the same order planKey collects
// lits, by construction from the shared literalSlots classification).
func parameterize(toks []Token) []Token {
	slots := literalSlots(toks)
	out := make([]Token, len(toks))
	idx := 0
	for i, t := range toks {
		if slots[i] {
			out[i] = Token{Type: TokParam, Text: "?", Start: t.Start, End: t.End, ParamIdx: idx}
			idx++
		} else {
			out[i] = t
		}
	}
	return out
}

// litExpr converts a literal token into its AST node, exactly as
// parsePrimary would have: the tracked Value carries the literal's
// per-character policies into the statement.
func litExpr(t Token) (Expr, error) {
	switch t.Type {
	case TokString:
		return &StringLit{Val: t.Value}, nil
	case TokNumber:
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, &ParseError{Offset: t.Start, Msg: fmt.Sprintf("bad number %q", t.Text)}
		}
		return &IntLit{Val: v, Src: t.Value}, nil
	default:
		return nil, fmt.Errorf("sqldb: plan literal slot bound to %s token", t.Type)
	}
}

// bindExpr clones an expression template, substituting Param slots with
// the per-slot bound expressions and Placeholder slots (present only on
// the direct-parse fallback path, where the statement never went through
// parameterize) with the bound-argument expressions. Substitution-free
// subtrees are shared — the engine never mutates statements.
func bindExpr(ex Expr, binds, ph []Expr) (Expr, error) {
	switch v := ex.(type) {
	case nil:
		return nil, nil
	case *Param:
		if v.Idx < 0 || v.Idx >= len(binds) {
			return nil, fmt.Errorf("sqldb: plan parameter ?%d out of range", v.Idx)
		}
		return binds[v.Idx], nil
	case *Placeholder:
		if v.Ord < 0 || v.Ord >= len(ph) {
			return nil, fmt.Errorf("sqldb: placeholder ?%d has no bound argument", v.Ord)
		}
		return ph[v.Ord], nil
	case *Binary:
		l, err := bindExpr(v.L, binds, ph)
		if err != nil {
			return nil, err
		}
		r, err := bindExpr(v.R, binds, ph)
		if err != nil {
			return nil, err
		}
		if l == v.L && r == v.R {
			return v, nil
		}
		return &Binary{Op: v.Op, L: l, R: r}, nil
	case *Unary:
		x, err := bindExpr(v.X, binds, ph)
		if err != nil {
			return nil, err
		}
		if x == v.X {
			return v, nil
		}
		return &Unary{Op: v.Op, X: x}, nil
	default:
		return ex, nil
	}
}

// bindStatement instantiates a statement template: binds fills Param
// slots (the plan-cache path), ph fills Placeholder slots by ordinal
// (the direct-parse path, where `?` tokens survived into the AST).
func bindStatement(tmpl Statement, binds, ph []Expr) (Statement, error) {
	switch s := tmpl.(type) {
	case *Select:
		w, err := bindExpr(s.Where, binds, ph)
		if err != nil {
			return nil, err
		}
		le, err := bindExpr(s.LimitExpr, binds, ph)
		if err != nil {
			return nil, err
		}
		if w == s.Where && le == s.LimitExpr {
			return s, nil
		}
		out := *s
		out.Where = w
		if le != s.LimitExpr {
			n, err := limitValue(le)
			if err != nil {
				return nil, err
			}
			out.Limit, out.LimitExpr = n, nil
		}
		return &out, nil
	case *Insert:
		rows := make([][]Expr, len(s.Rows))
		for i, row := range s.Rows {
			out := make([]Expr, len(row))
			for j, ex := range row {
				b, err := bindExpr(ex, binds, ph)
				if err != nil {
					return nil, err
				}
				out[j] = b
			}
			rows[i] = out
		}
		return &Insert{Table: s.Table, Columns: s.Columns, Rows: rows}, nil
	case *Update:
		set := make([]Assignment, len(s.Set))
		for i, a := range s.Set {
			v, err := bindExpr(a.Value, binds, ph)
			if err != nil {
				return nil, err
			}
			set[i] = Assignment{Column: a.Column, Value: v}
		}
		w, err := bindExpr(s.Where, binds, ph)
		if err != nil {
			return nil, err
		}
		return &Update{Table: s.Table, Set: set, Where: w}, nil
	case *Delete:
		w, err := bindExpr(s.Where, binds, ph)
		if err != nil {
			return nil, err
		}
		if w == s.Where {
			return s, nil
		}
		return &Delete{Table: s.Table, Where: w}, nil
	default:
		// CREATE/DROP TABLE and CREATE/DROP INDEX carry no literal
		// slots; the template is the statement.
		return tmpl, nil
	}
}

// limitValue resolves a bound LIMIT expression: the argument must be a
// non-negative integer (a string or NULL cannot cap a row count).
func limitValue(e Expr) (int, error) {
	lit, ok := e.(*IntLit)
	if !ok {
		return 0, fmt.Errorf("sqldb: LIMIT must bind an integer, got %s", e.SQL())
	}
	if lit.Val < 0 {
		return 0, fmt.Errorf("sqldb: LIMIT must bind a non-negative integer, got %d", lit.Val)
	}
	return int(lit.Val), nil
}

// compile resolves a token stream to its cached plan template without
// binding, compiling and installing the template on a miss. Every query
// compiles through here (compileTokens), so a spliced query shape and
// its prepared form share one key and one template. The returned lits
// are the current literal slot tokens in slot order; cached reports
// whether the template came from the cache. Callers count hits/misses —
// a hit is only a hit once its literals have converted.
func (c *planCache) compile(toks []Token, mode byte) (plan *cachedPlan, lits []Token, cached bool, err error) {
	key, lits := planKey(toks, mode)
	if plan, ok := c.m.Get(key); ok {
		return plan, lits, true, nil
	}
	tmpl, err := ParseTokens(parameterize(toks))
	if err != nil {
		return nil, lits, false, err
	}
	// Racing compiles converge on the installed template.
	plan, _ = c.m.GetOrAdd(key, &cachedPlan{tmpl: tmpl})
	return plan, lits, false, nil
}

// pcolsFor returns the cached policy-column set of the plan's tables
// for engine's current schema, recompiling it when the schema
// generation moved (the plan-cache invalidation rule: any CREATE/DROP
// of a table or index invalidates every plan's schema-derived state —
// which also covers both sides of a join, since every DDL bumps the
// generation).
func (c *planCache) pcolsFor(plan *cachedPlan, engine *Engine, tables []string) map[string]bool {
	gen := engine.SchemaGen()
	plan.mu.Lock()
	defer plan.mu.Unlock()
	if plan.gen != gen || plan.pcols == nil {
		if plan.gen != 0 {
			c.invalidations.Add(1)
		}
		plan.pcols = policyColSet(engine, tables)
		if plan.pcols == nil {
			plan.pcols = map[string]bool{}
		}
		plan.gen = gen
	}
	return plan.pcols
}

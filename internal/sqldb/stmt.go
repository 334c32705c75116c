package sqldb

import (
	"errors"
	"fmt"

	"resin/internal/core"
	"resin/internal/sanitize"
)

// Prepared statements: the one way a query reaches the engine — the
// paper's string-splicing filter interface grown a binding API. A Stmt
// is compiled once — one tokenize, one parse — from query text
// containing `?` or `:name` binding placeholders; every execution binds
// argument *values* (tracked or plain) into the cached plan template.
// Bound values never appear in query text, so they cannot reshape the
// statement: injection through a bound slot is structurally impossible,
// and the §5.3 injection assertions skip bound slots by construction
// (they inspect the text, and the text holds only placeholders).
// Policies on bound values flow into shadow policy columns exactly as
// literal policies do (Figure 4), because binding produces the same
// literal expressions the parser would have.
//
// A text query (Query, Exec, MustExec on DB, Tx or View) is a one-shot
// Stmt: compiled against the same plan cache and executed by the same
// code, so a warm query shape runs at 1 tokenize and 0 parses, and a
// Stmt prepared once runs at 0 and 0 — TokenizeCount and ParseCount pin
// both in tests and in BenchmarkSQLPreparedLookup.

// argExpr converts one bound argument into the literal expression the
// parser would have produced for it: tracked values keep their policy
// sets (core.String per-character; core.Int whole-value, rendered onto
// its digits for policy-column persistence), plain Go values bind
// untainted.
func argExpr(a any) (Expr, error) {
	switch v := a.(type) {
	case nil:
		return &NullLit{}, nil
	case core.String:
		return &StringLit{Val: v}, nil
	case core.Int:
		return &IntLit{Val: v.Value(), Src: v.ToString()}, nil
	case string:
		return &StringLit{Val: core.NewString(v)}, nil
	case []byte:
		return &StringLit{Val: core.NewString(string(v))}, nil
	case int:
		return &IntLit{Val: int64(v)}, nil
	case int64:
		return &IntLit{Val: v}, nil
	case int32:
		return &IntLit{Val: int64(v)}, nil
	case int16:
		return &IntLit{Val: int64(v)}, nil
	case int8:
		return &IntLit{Val: int64(v)}, nil
	case uint8:
		return &IntLit{Val: int64(v)}, nil
	case uint16:
		return &IntLit{Val: int64(v)}, nil
	case uint32:
		return &IntLit{Val: int64(v)}, nil
	case bool:
		if v {
			return &IntLit{Val: 1}, nil
		}
		return &IntLit{Val: 0}, nil
	default:
		return nil, fmt.Errorf("sqldb: cannot bind %T (want core.String, core.Int, string, []byte, integer, bool, or nil)", a)
	}
}

// argExprs converts a bound-argument list; index i of the result binds
// placeholder ?i.
func argExprs(args []any) ([]Expr, error) {
	if len(args) == 0 {
		return nil, nil
	}
	out := make([]Expr, len(args))
	for i, a := range args {
		ex, err := argExpr(a)
		if err != nil {
			return nil, fmt.Errorf("%w (argument %d)", err, i)
		}
		out[i] = ex
	}
	return out, nil
}

// phSlot maps one placeholder slot of a plan template to its binding
// ordinal. Positional `?` placeholders get sequential ordinals; repeated
// `:name` placeholders share one ordinal, so a single bound argument can
// fill several slots.
type phSlot struct {
	slot int // literal-slot index in the template
	ord  int // binding ordinal (Token.ParamIdx)
}

// NamedArg binds a value to a `:name` placeholder by name instead of by
// position. Construct one with Named. A statement execution must bind
// either all positionally or all by name.
type NamedArg struct {
	Name  string
	Value any
}

// Named returns a NamedArg binding value to the `:name` placeholder.
func Named(name string, value any) NamedArg { return NamedArg{Name: name, Value: value} }

// surface implements the query family — Query, QueryRaw, Exec,
// MustExec, Prepare, PrepareRaw — once. DB and Tx embed it, View
// delegates to it, and a Stmt keeps the surface it was prepared on,
// which fixes the engine statements run on: the database's, or the
// speculative engine of a transaction or an integrity-assertion view.
type surface struct {
	db   *DB
	tx   *Tx     // set on a transaction: its lock and ErrTxDone guard every execution
	spec *Engine // speculative engine (Tx, View); nil runs on db.Engine()
}

// Query executes one statement built as a tracked string, as a one-shot
// prepared statement. args bind its placeholders — positionally for
// `?`, or through Named values for `:name`; tracked values (core.String,
// core.Int) keep their policies, plain Go values bind untainted, and no
// argument is ever spliced into the query text.
func (q *surface) Query(text core.String, args ...any) (*Result, error) {
	return q.compileStmt(text, true).Query(args...)
}

// QueryRaw is Query for untracked text.
func (q *surface) QueryRaw(text string, args ...any) (*Result, error) {
	return q.Query(core.NewString(text), args...)
}

// Exec runs a statement and returns only the number of rows affected —
// the right-sized result for INSERT/UPDATE/DELETE callers.
func (q *surface) Exec(text core.String, args ...any) (int, error) {
	res, err := q.Query(text, args...)
	if err != nil {
		return 0, err
	}
	return res.Affected, nil
}

// MustExec runs a query and panics on error; used by setup code for
// schema and seed statements.
func (q *surface) MustExec(text string) *Result {
	res, err := q.QueryRaw(text)
	if err != nil {
		panic(fmt.Sprintf("sqldb: %s: %v", text, err))
	}
	return res
}

// Prepare compiles query text — with binding placeholders — into a Stmt
// executing where q does; a transaction's Stmt becomes unusable once the
// transaction ends (ErrTxDone). The text is tokenized and parsed exactly
// once; see the comment at the top of this file for the binding and
// assertion semantics.
func (q *surface) Prepare(text core.String) (*Stmt, error) {
	s := q.compileStmt(text, false)
	// A standard-lexer failure on untrusted text waits for execution:
	// the auto-sanitizing tokenizer, if on by then, may accept the text
	// as inert values.
	var lexErr *LexError
	if s.err != nil && !(s.textUntrusted && errors.As(s.err, &lexErr)) {
		return nil, s.err
	}
	return s, nil
}

// PrepareRaw is Prepare for untracked query text.
func (q *surface) PrepareRaw(text string) (*Stmt, error) { return q.Prepare(core.NewString(text)) }

// compileStmt compiles text into a Stmt on q. The text is tokenized
// here and never at execution, except when the auto-sanitizing
// tokenizer must re-lex a prepared statement's untrusted text. A
// statement whose text does not compile still comes back, carrying the
// error for execution to report after the injection assertions, as a
// text query always has.
//
// A one-shot statement reads the filter flags once, here, and lexes
// only in the mode they select: under auto-sanitize with tracking on,
// the auto-sanitizing tokenizer, plus the standard lex the strategy-2
// verdict needs when that assertion is on.
func (q *surface) compileStmt(text core.String, oneShot bool) *Stmt {
	s := &Stmt{on: *q, query: text, oneShot: oneShot}
	_, _, s.textUntrusted = text.FindPolicy(sanitize.IsUntrusted)
	s.s1Start, s.s1End, s.s1Found = sanitize.UnsanitizedSQL(text)
	if oneShot {
		s.flags = q.db.filter.flags()
		s.autoLexed = s.flags.auto && q.db.rt.Tracking()
	}
	plans := q.db.filter.planner()
	if !s.autoLexed || s.flags.s2 {
		toks, err := Lex(text)
		switch {
		case err != nil:
			s.s2Err, s.err = err, err
		case !s.autoLexed:
			s.compiled, s.err = compileTokens(plans, toks, planModeStandard)
		}
		if err == nil && s.textUntrusted {
			s.s2Err = checkTaintedStructureTokens(text, toks)
		}
	}
	if s.autoLexed {
		s.compiled, s.err = compileAuto(plans, text)
	}
	return s
}

// Stmt is a prepared statement: query text compiled once, executed many
// times with bound arguments. Create one with Prepare on a DB or Tx; a
// Stmt is safe for concurrent use (its compiled state is immutable;
// per-execution state lives on the stack).
type Stmt struct {
	on    surface
	query core.String
	compiled
	err error // compile error, reported by execution

	// Assertion verdicts precomputed against the immutable query text,
	// so executions consult flags without re-tokenizing: the strategy-1
	// unsanitized range and the strategy-2 tainted-structure error.
	s1Start, s1End int
	s1Found        bool
	s2Err          error
	// textUntrusted notes untrusted bytes in the text itself; with
	// auto-sanitize enabled such text executes under the taint-aware
	// tokenizer.
	textUntrusted bool

	// oneShot marks a text query's statement, compiled for a single
	// execution under the filter flags read at compile time (flags);
	// autoLexed means those flags selected the auto-sanitizing
	// tokenizer, whose plan the statement then holds.
	oneShot   bool
	autoLexed bool
	flags     filterFlags
}

// compiled is a statement's plan in one tokenizer mode: the shared
// template, its inline literals pre-converted to expressions, and the
// slots bound arguments fill, so executions do no token work at all.
type compiled struct {
	plan    *cachedPlan // shared template via the filter's plan cache
	fixed   []Expr      // per-slot inline-literal expressions; nil at placeholder slots
	phSlots []phSlot    // placeholder slot index → binding ordinal
	names   []string    // binding ordinal → placeholder name; nil when all are positional
	nargs   int         // number of distinct binding ordinals

	// direct marks the fallback for a template that would not compile
	// (a shape the template parser rejects): plan holds the original
	// token stream parsed as-is, its Placeholder nodes bound per
	// execution. Still 0 parses per op.
	direct bool
}

// compileTokens resolves a token stream to its plan through the cache.
// Any template trouble falls back to parsing the original tokens, so the
// cache can only ever add performance, never change behavior — error
// messages included, which come from the original token stream.
func compileTokens(plans *planCache, toks []Token, mode byte) (compiled, error) {
	c := compiled{nargs: countPlaceholders(toks), names: placeholderNames(toks)}
	plan, lits, cached, err := plans.compile(toks, mode)
	if err == nil {
		c.plan, c.fixed = plan, make([]Expr, len(lits))
		for i, t := range lits {
			if t.Type == TokPlaceholder {
				c.phSlots = append(c.phSlots, phSlot{slot: i, ord: t.ParamIdx})
				continue
			}
			if c.fixed[i], err = litExpr(t); err != nil {
				break // a literal the template cannot carry, e.g. an overflowing number
			}
		}
	}
	if err != nil {
		plans.misses.Add(1)
		tmpl, perr := ParseTokens(toks)
		if perr != nil {
			return compiled{}, perr
		}
		return compiled{plan: &cachedPlan{tmpl: tmpl}, names: c.names, nargs: c.nargs, direct: true}, nil
	}
	if cached {
		plans.hits.Add(1)
	} else {
		plans.misses.Add(1)
	}
	return c, nil
}

// compileAuto lexes text with the auto-sanitizing tokenizer and compiles
// it under planModeAutoSanitize, so its plans never mix with the
// standard tokenizer's.
func compileAuto(plans *planCache, text core.String) (compiled, error) {
	toks, err := LexAutoSanitize(text)
	if err != nil {
		return compiled{}, err
	}
	c, err := compileTokens(plans, toks, planModeAutoSanitize)
	if err != nil {
		return compiled{}, fmt.Errorf("sqldb: auto-sanitized parse: %w", err)
	}
	return c, nil
}

// NumArgs returns the number of `?` placeholders the statement binds.
func (s *Stmt) NumArgs() int { return s.nargs }

// Text returns the prepared query text.
func (s *Stmt) Text() core.String { return s.query }

// bind instantiates the plan with the given bound-argument expressions,
// by binding ordinal. No tokenizer and no parser run here.
func (c *compiled) bind(bound []Expr) (Statement, error) {
	if len(bound) != c.nargs {
		return nil, fmt.Errorf("sqldb: statement has %d placeholder(s) but %d bound argument(s)", c.nargs, len(bound))
	}
	if c.direct {
		return bindStatement(c.plan.tmpl, nil, bound)
	}
	binds := c.fixed
	if c.nargs > 0 {
		binds = make([]Expr, len(c.fixed))
		copy(binds, c.fixed)
		for _, m := range c.phSlots {
			binds[m.slot] = bound[m.ord]
		}
	}
	return bindStatement(c.plan.tmpl, binds, nil)
}

// bindArgs converts the caller's argument list to per-ordinal bound
// expressions. Positional calls bind in order; NamedArg calls bind by
// `:name`, in any order, with repeats of a name sharing one ordinal.
// Mixing the two styles in one call is an error, as is an unknown,
// missing, or duplicate name.
func (c *compiled) bindArgs(args []any) ([]Expr, error) {
	named := 0
	for _, a := range args {
		if _, ok := a.(NamedArg); ok {
			named++
		}
	}
	if named == 0 {
		return argExprs(args)
	}
	if named != len(args) {
		return nil, fmt.Errorf("sqldb: cannot mix named and positional arguments in one execution")
	}
	bound := make([]Expr, c.nargs)
	seen := make([]bool, c.nargs)
	for _, a := range args {
		na := a.(NamedArg)
		ord := -1
		for i, n := range c.names {
			if n != "" && n == na.Name {
				ord = i
				break
			}
		}
		if ord < 0 {
			return nil, fmt.Errorf("sqldb: no placeholder named %q in statement", na.Name)
		}
		if seen[ord] {
			return nil, fmt.Errorf("sqldb: placeholder %q bound twice", na.Name)
		}
		ex, err := argExpr(na.Value)
		if err != nil {
			return nil, fmt.Errorf("%w (argument %q)", err, na.Name)
		}
		bound[ord], seen[ord] = ex, true
	}
	for i, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("sqldb: placeholder %q not bound", c.names[i])
		}
	}
	return bound, nil
}

// ReadOnly reports whether the statement is a SELECT — the only
// statement form a read replica will execute. Statements whose compile
// was deferred (untrusted text needing the auto-sanitizing lexer) report
// false: their shape is unknown until execution.
func (s *Stmt) ReadOnly() bool {
	if s.err != nil {
		return false
	}
	_, ok := s.plan.tmpl.(*Select)
	return ok
}

// preparedExec is the value a statement execution routes through the
// SQL channel alongside its query text: the compiled statement plus its
// bound arguments, already converted to literal expressions. The RESIN
// filter executes the bound plan — arguments travel as values, never as
// text.
type preparedExec struct {
	stmt  *Stmt
	bound []Expr
}

// Query executes the prepared statement with the given arguments bound
// into its placeholders — positionally for `?`, or via Named values for
// `:name` — and returns the tracked result.
func (s *Stmt) Query(args ...any) (*Result, error) {
	bound, err := s.bindArgs(args)
	if err != nil {
		if s.err != nil {
			return nil, s.err // the text did not compile; that is why nothing binds
		}
		return nil, err
	}
	return s.run(bound)
}

// Exec executes the prepared statement and returns the number of rows
// affected (INSERT/UPDATE/DELETE; 0 for other statements).
func (s *Stmt) Exec(args ...any) (int, error) {
	res, err := s.Query(args...)
	if err != nil {
		return 0, err
	}
	return res.Affected, nil
}

// MustPrepare compiles untracked query text and panics on error; used
// by application startup code preparing its hot statements.
func (db *DB) MustPrepare(q string) *Stmt {
	st, err := db.PrepareRaw(q)
	if err != nil {
		panic(fmt.Sprintf("sqldb: prepare %s: %v", q, err))
	}
	return st
}

// run executes the statement with its bound arguments where it was
// prepared: through the SQL channel's filter chain, which consumes the
// call while tracking is on, and otherwise directly on the engine
// without policy persistence.
func (s *Stmt) run(bound []Expr) (*Result, error) {
	q := &s.on
	if q.tx != nil {
		if err := q.tx.lock(); err != nil {
			return nil, err
		}
		defer q.tx.mu.Unlock()
	}
	engine := q.spec
	if engine == nil {
		engine = q.db.Engine()
	}
	out, err := q.db.channel.Call([]any{s.query, engine, &preparedExec{stmt: s, bound: bound}})
	if err != nil {
		return nil, err
	}
	if len(out) == 1 {
		if res, ok := out[0].(*Result); ok {
			return res, nil
		}
	}
	return s.execute(q.db.filter.planner(), engine, bound, false, false)
}

// execute binds bound into the statement's plan and runs it on engine.
// A tracked execution is the filter's: the Figure 4 rewrite persists
// policies, and the result carries them re-attached. auto asks for the
// auto-sanitizing tokenizer: a statement lexed in the standard mode
// whose text carries untrusted bytes then compiles again under it (the
// slow, faithful path; prepared text is normally programmer-authored
// and untainted).
func (s *Stmt) execute(plans *planCache, engine *Engine, bound []Expr, auto, tracked bool) (*Result, error) {
	c := &s.compiled
	switch {
	case auto && s.textUntrusted && !s.autoLexed:
		ac, err := compileAuto(plans, s.query)
		if err != nil {
			return nil, err
		}
		c = &ac
	case s.err != nil:
		return nil, s.err
	}
	stmt, err := c.bind(bound)
	if err != nil {
		return nil, err
	}
	if tracked {
		return plans.execute(c.plan, engine, stmt)
	}
	raw, affected, err := engine.ExecuteRaw(stmt)
	if err != nil {
		return nil, err
	}
	return fromRaw(raw, affected, false, "")
}

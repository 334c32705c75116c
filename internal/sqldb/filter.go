package sqldb

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"resin/internal/core"
	"resin/internal/sanitize"
)

// PolicyColPrefix prefixes the shadow column that stores the serialized
// policy annotation for a data column (Figure 4: "for a CREATE TABLE
// query, the filter adds an additional policy column to store the
// serialized policy for each data column").
const PolicyColPrefix = "__policy_"

func policyColName(col string) string { return PolicyColPrefix + strings.ToLower(col) }

// IsPolicyColumn reports whether a column name is a shadow policy column.
func IsPolicyColumn(name string) bool { return strings.HasPrefix(name, PolicyColPrefix) }

// isPolicyRef is IsPolicyColumn for possibly table-qualified references:
// "reviews.__policy_body" is a policy reference just like
// "__policy_body".
func isPolicyRef(name string) bool {
	if _, col, ok := splitQualifier(name); ok {
		return IsPolicyColumn(col)
	}
	return IsPolicyColumn(name)
}

// policyCompanionName maps a data-column reference to its shadow policy
// column, preserving any table qualifier: "title" → "__policy_title",
// "papers.title" → "papers.__policy_title".
func policyCompanionName(col string) string {
	if qual, c, ok := splitQualifier(col); ok {
		return qual + "." + policyColName(c)
	}
	return policyColName(col)
}

// aggInner splits an aggregate output column name "AGG(inner)" into its
// parts; ok is false for plain column names.
func aggInner(name string) (agg, inner string, ok bool) {
	i := strings.IndexByte(name, '(')
	if i <= 0 || !strings.HasSuffix(name, ")") {
		return "", "", false
	}
	switch up := strings.ToUpper(name[:i]); up {
	case "COUNT", "SUM", "MIN", "MAX", "PUNION":
		return up, name[i+1 : len(name)-1], true
	}
	return "", "", false
}

// InjectionError reports a SQL injection assertion failure, pointing at
// the offending character range of the query.
type InjectionError struct {
	Strategy string
	Query    string
	Start    int
	End      int
}

func (e *InjectionError) Error() string {
	// Clamp both ends into the query's bounds: assertion sites report
	// offsets from lexers and span walks, and a hostile or truncated
	// query must render a diagnostic, never panic the error path.
	clamp := func(i int) int {
		if i < 0 {
			return 0
		}
		if i > len(e.Query) {
			return len(e.Query)
		}
		return i
	}
	start, end := clamp(e.Start), clamp(e.End)
	if start > end {
		start = end
	}
	return fmt.Sprintf("sqldb: SQL injection assertion (%s) rejected query: untrusted bytes %d..%d (%q)",
		e.Strategy, e.Start, e.End, e.Query[start:end])
}

// ResinSQLFilter is the default filter object RESIN attaches to the
// function used to issue SQL queries (§3.4.1). It always performs policy
// persistence — rewriting CREATE TABLE to add policy columns, INSERT and
// UPDATE to store each value's serialized policy, and SELECT to fetch and
// re-attach policies. The two injection defenses of §5.3 are assertions
// the application enables on top:
//
//   - RequireSanitizedMarkers (strategy 1): reject queries containing
//     characters with UntrustedData but not SQLSanitized;
//   - RejectTaintedStructure (strategy 2): tokenize the final query and
//     reject untrusted characters outside string/number literal values
//     (keywords, identifiers, operators, whitespace, comments).
type ResinSQLFilter struct {
	mu                sync.Mutex
	requireSanitized  bool
	rejectTaintedStru bool
	autoSanitize      bool
	plans             atomic.Pointer[planCache]
}

// planner returns the filter's plan cache, creating it on first use (so
// a zero-value ResinSQLFilter works). The hot path is one atomic load —
// no lock on the per-query route to the cache.
func (f *ResinSQLFilter) planner() *planCache {
	if p := f.plans.Load(); p != nil {
		return p
	}
	p := newPlanCache()
	if f.plans.CompareAndSwap(nil, p) {
		return p
	}
	return f.plans.Load()
}

// PlanStats reports the plan cache's hit/miss/invalidation counters.
func (f *ResinSQLFilter) PlanStats() PlanCacheStats { return f.planner().stats() }

// PlanCacheReset empties the plan cache (tests and benchmarks).
func (f *ResinSQLFilter) PlanCacheReset() { f.planner().reset() }

// RequireSanitizedMarkers enables/disables the strategy-1 assertion.
func (f *ResinSQLFilter) RequireSanitizedMarkers(on bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.requireSanitized = on
}

// RejectTaintedStructure enables/disables the strategy-2 assertion.
func (f *ResinSQLFilter) RejectTaintedStructure(on bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rejectTaintedStru = on
}

// AutoSanitizeUntrusted enables the §5.3 variation on strategy 2: instead
// of rejecting queries whose structure is tainted, the tokenizer keeps
// contiguous untrusted bytes in one value token, so untrusted data cannot
// affect the command structure of the query at all. It subsumes the
// reject-based strategies for injection (they may still be enabled
// together; the checks run first).
func (f *ResinSQLFilter) AutoSanitizeUntrusted(on bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.autoSanitize = on
}

// filterFlags is one reading of the filter's assertion settings.
type filterFlags struct{ s1, s2, auto bool }

func (f *ResinSQLFilter) flags() filterFlags {
	f.mu.Lock()
	defer f.mu.Unlock()
	return filterFlags{f.requireSanitized, f.rejectTaintedStru, f.autoSanitize}
}

// FilterFunc interposes on the query function: args is {query
// core.String, engine *Engine, *preparedExec} — every query, text or
// prepared, arrives as a compiled statement plus its bound arguments.
// On success it returns {result *Result}. The assertion verdicts were
// computed against the immutable statement text when it compiled, so
// neither the tokenizer nor the parser runs here; bound arguments travel
// as values, never as text, so the injection assertions skip bound
// slots by construction. A one-shot text query applies the flags it read
// when it compiled, so it is judged and executed in one mode.
func (f *ResinSQLFilter) FilterFunc(ch *core.Channel, args []any) ([]any, error) {
	if len(args) != 3 {
		return nil, fmt.Errorf("sqldb: filter expects (query, engine, statement), got %d args", len(args))
	}
	engine, ok := args[1].(*Engine)
	if !ok {
		return nil, fmt.Errorf("sqldb: filter arg 1 must be *Engine, got %T", args[1])
	}
	p, ok := args[2].(*preparedExec)
	if !ok {
		return nil, fmt.Errorf("sqldb: filter arg 2 must be a statement execution, got %T", args[2])
	}
	st := p.stmt
	fl := st.flags
	if !st.oneShot {
		fl = f.flags()
	}
	if fl.s1 && st.s1Found {
		return nil, &core.AssertionError{
			Context: ch.Context(), Op: "export_check",
			Err: &InjectionError{Strategy: "sanitized-markers", Query: st.query.Raw(), Start: st.s1Start, End: st.s1End},
		}
	}
	if fl.s2 && st.s2Err != nil {
		return nil, &core.AssertionError{Context: ch.Context(), Op: "export_check", Err: st.s2Err}
	}
	res, err := st.execute(f.planner(), engine, p.bound, fl.auto, true)
	if err != nil {
		return nil, err
	}
	return []any{res}, nil
}

// checkTaintedStructureTokens implements strategy 2 over the standard
// token stream of q: every byte of the query that is not inside a
// string or number literal — keywords, identifiers, operators,
// punctuation, whitespace, comments — must carry no UntrustedData
// policy.
func checkTaintedStructureTokens(q core.String, toks []Token) error {
	// Collect the byte ranges occupied by value literals; every tainted
	// byte must fall inside one of them.
	type rng struct{ start, end int }
	var values []rng
	for _, t := range toks {
		if t.Type == TokString || t.Type == TokNumber {
			values = append(values, rng{t.Start, t.End})
		}
	}
	inValue := func(i int) bool {
		for _, r := range values {
			if i >= r.start && i < r.end {
				return true
			}
		}
		return false
	}
	var bad *InjectionError
	q.EachTaintedSpan(func(start, end int, ps *core.PolicySet) error { //nolint:errcheck
		if bad != nil || !ps.Any(sanitize.IsUntrusted) {
			return nil
		}
		for i := start; i < end; i++ {
			if !inValue(i) {
				bad = &InjectionError{Strategy: "tainted-structure", Query: q.Raw(), Start: i, End: end}
				return nil
			}
		}
		return nil
	})
	if bad != nil {
		return bad
	}
	return nil
}

// Cell is one result cell with its re-attached policies.
type Cell struct {
	Null  bool
	IsInt bool
	Int   core.Int
	Str   core.String
}

// Text renders the cell as a tracked string (integer cells render their
// digits carrying the integer's policy set; NULL renders empty).
func (c Cell) Text() core.String {
	switch {
	case c.Null:
		return core.String{}
	case c.IsInt:
		return c.Int.ToString()
	default:
		return c.Str
	}
}

// Result is a query result with policies attached to each cell.
type Result struct {
	Columns  []string
	Rows     [][]Cell
	Affected int
}

// ColumnIndex returns the index of the named column, or -1.
func (r *Result) ColumnIndex(name string) int {
	for i, c := range r.Columns {
		if strings.EqualFold(c, name) {
			return i
		}
	}
	return -1
}

// Get returns the cell at row i, column name. It returns a NULL cell for
// unknown columns.
func (r *Result) Get(i int, name string) Cell {
	ci := r.ColumnIndex(name)
	if ci < 0 || i < 0 || i >= len(r.Rows) {
		return Cell{Null: true}
	}
	return r.Rows[i][ci]
}

// Len returns the number of rows.
func (r *Result) Len() int { return len(r.Rows) }

// stmtPolicyTables names the tables whose policy-column sets the
// rewrite of stmt consults; nil for statements rewritten without them.
// A join consults both sides (qualified references resolve against
// either table's shadow columns).
func stmtPolicyTables(stmt Statement) []string {
	switch s := stmt.(type) {
	case *Insert:
		return []string{s.Table}
	case *Update:
		return []string{s.Table}
	case *Select:
		if s.Star {
			return nil
		}
		ts := []string{s.Table}
		if s.Join != nil {
			ts = append(ts, s.Join.Table)
		}
		return ts
	}
	return nil
}

// execute rewrites stmt to persist/fetch policy columns, executes it,
// and re-attaches policies to the result (Figure 4).
func (c *planCache) execute(plan *cachedPlan, engine *Engine, stmt Statement) (*Result, error) {
	rewritten, err := c.rewrite(plan, engine, stmt)
	if err != nil {
		return nil, err
	}
	raw, affected, err := engine.ExecuteRaw(rewritten)
	if err != nil {
		return nil, err
	}
	if sel, isSelect := stmt.(*Select); isSelect {
		return fromRaw(raw, 0, true, sel.Table)
	}
	return fromRaw(nil, affected, false, "")
}

// rewrite returns the statement the RESIN filter hands the engine in
// place of stmt: CREATE TABLE grows a shadow policy column per data
// column, INSERT and UPDATE store each value's serialized policy, SELECT
// fetches policy columns alongside data columns. DROP, DELETE, and the
// index statements pass through unchanged. The policy-column set comes
// from plan, recomputed only when the engine's schema generation moved
// since it was computed. The worked Figure 4 example in docs/SQL.md is
// pinned to this function's output by a test.
func (c *planCache) rewrite(plan *cachedPlan, engine *Engine, stmt Statement) (Statement, error) {
	var pcols map[string]bool
	if tables := stmtPolicyTables(stmt); len(tables) > 0 {
		pcols = c.pcolsFor(plan, engine, tables)
	}
	switch s := stmt.(type) {
	case *CreateTable:
		return rewriteCreate(s), nil
	case *Insert:
		return rewriteInsert(s, pcols)
	case *Select:
		return rewriteSelect(s, pcols), nil
	case *Update:
		return rewriteUpdate(s, pcols)
	default: // DropTable, Delete, CreateIndex, DropIndex need no rewriting.
		return stmt, nil
	}
}

// rewriteCreate adds one TEXT policy column per data column.
func rewriteCreate(s *CreateTable) *CreateTable {
	cols := make([]ColumnDef, 0, 2*len(s.Cols))
	cols = append(cols, s.Cols...)
	for _, c := range s.Cols {
		cols = append(cols, ColumnDef{Name: policyColName(c.Name), Type: ColText})
	}
	return &CreateTable{Table: s.Table, Cols: cols}
}

// annotationFor serializes the policy spans of a literal's stored form.
// It returns the expression to store in the policy column. table and col
// name the destination cell for lineage.
func annotationFor(e Expr, table, col string) (Expr, error) {
	var tracked core.String
	switch v := e.(type) {
	case *StringLit:
		tracked = v.Val
	case *IntLit:
		tracked = v.Src
	case *NullLit:
		return &NullLit{}, nil
	case *Placeholder:
		return nil, fmt.Errorf("sqldb: unbound placeholder ?%d", v.Ord)
	default:
		return nil, fmt.Errorf("sqldb: expected literal, got %T", e)
	}
	ann, err := core.EncodeSpans(tracked)
	if err != nil {
		return nil, err
	}
	if ann == nil {
		return &NullLit{}, nil
	}
	if core.LineageEnabled() {
		core.LineageRecordValue(tracked, "sql-store", lineageColNode(table, col))
	}
	return &StringLit{Val: core.NewString(string(ann))}, nil
}

// lineageColNode names a table cell for lineage, e.g. "sql:users.password".
// Qualified references keep their own qualifier. Only called with the
// lineage gate on.
func lineageColNode(table, col string) string {
	lc := strings.ToLower(col)
	if table == "" || strings.Contains(lc, ".") {
		return "sql:" + lc
	}
	return "sql:" + strings.ToLower(table) + "." + lc
}

// recordCellLineage reports a shadow-column load for a policy-carrying
// result cell. Only called with the lineage gate on.
func recordCellLineage(c Cell, node string) {
	switch {
	case c.Null:
	case c.IsInt:
		core.LineageRecord(c.Int.Policies(), "sql-load", node)
	default:
		core.LineageRecordValue(c.Str, "sql-load", node)
	}
}

// policyColSet returns the lower-cased policy column names present in
// the tables' schemas (it may be empty, if a table was created while
// tracking was disabled). Each column appears under both its bare name
// and its table-qualified form, so the rewrite can check companions for
// qualified and unqualified references alike with one map. One schema
// fetch per table serves the whole statement.
func policyColSet(engine *Engine, tables []string) map[string]bool {
	out := make(map[string]bool)
	for _, table := range tables {
		schema, err := engine.Schema(table)
		if err != nil {
			continue
		}
		tl := strings.ToLower(table)
		for _, c := range schema {
			name := strings.ToLower(c.Name)
			if strings.HasPrefix(name, PolicyColPrefix) {
				out[name] = true
				out[tl+"."+name] = true
			}
		}
	}
	return out
}

// rewriteInsert augments each row with the serialized policy of each
// value.
func rewriteInsert(s *Insert, pcols map[string]bool) (*Insert, error) {
	cols := append([]string(nil), s.Columns...)
	augment := make([]bool, len(s.Columns))
	for i, c := range s.Columns {
		if !IsPolicyColumn(c) && pcols[policyColName(c)] {
			augment[i] = true
			cols = append(cols, policyColName(c))
		}
	}
	rows := make([][]Expr, 0, len(s.Rows))
	for _, row := range s.Rows {
		out := append([]Expr(nil), row...)
		for i := range s.Columns {
			if !augment[i] {
				continue
			}
			ann, err := annotationFor(row[i], s.Table, s.Columns[i])
			if err != nil {
				return nil, err
			}
			out = append(out, ann)
		}
		rows = append(rows, out)
	}
	return &Insert{Table: s.Table, Columns: cols, Rows: rows}, nil
}

// rewriteUpdate augments each SET clause with its policy column.
func rewriteUpdate(s *Update, pcols map[string]bool) (*Update, error) {
	set := append([]Assignment(nil), s.Set...)
	for _, a := range s.Set {
		if IsPolicyColumn(a.Column) || !pcols[policyColName(a.Column)] {
			continue
		}
		ann, err := annotationFor(a.Value, s.Table, a.Column)
		if err != nil {
			return nil, err
		}
		set = append(set, Assignment{Column: policyColName(a.Column), Value: ann})
	}
	return &Update{Table: s.Table, Set: set, Where: s.Where}, nil
}

// rewriteSelect fetches a policy companion alongside each selected data
// item; fromRaw later attaches the de-serialized policies to each cell
// and hides the companions from the visible result. Plain items get
// their shadow column (span-preserving). In aggregate queries every
// value-carrying item instead gets a PUNION over the shadow column —
// the engine-level carrier of "an aggregate output carries the union of
// its inputs' policy sets". COUNT(*) aggregates row presence, not
// values, and carries nothing.
func rewriteSelect(s *Select, pcols map[string]bool) *Select {
	if s.Star {
		return s
	}
	sel := *s
	items := append([]SelectItem(nil), s.Items...)
	grouped := s.grouped()
	for _, it := range s.Items {
		switch {
		case it.Agg == "PUNION" || (it.Agg != "" && it.Star):
			// PUNION is already a policy carrier; COUNT(*) has no inputs.
		case isPolicyRef(it.Col) || !pcols[strings.ToLower(policyCompanionName(it.Col))]:
			// Policy columns stay opaque; columns without a shadow column
			// (created untracked) have no policies to fetch.
		case grouped:
			items = append(items, SelectItem{Agg: "PUNION", Col: policyCompanionName(it.Col)})
		default:
			items = append(items, SelectItem{Col: policyCompanionName(it.Col)})
		}
	}
	sel.Items = items
	return &sel
}

// fromRaw converts an engine result to a tracked Result. When attach is
// true, policy columns are consumed: their annotations are de-serialized
// and attached to the corresponding data cells, and the policy columns
// are removed from the visible result. tbl qualifies unqualified column
// names in lineage nodes (it may be empty on attach-free paths).
func fromRaw(raw *rawResult, affected int, attach bool, tbl string) (*Result, error) {
	if raw == nil {
		return &Result{Affected: affected}, nil
	}
	// A policy companion is consumed as an annotation only when the data
	// column it was fetched for is also part of the result; a policy
	// column selected on its own is returned as opaque data. Pairing is
	// driven from the data side: each data column computes the companion
	// name the rewrite would have added — the PUNION form first (grouped
	// results carry unions, non-grouped results span companions; one
	// query never mixes the two for a column) — and claims it by name.
	lower := make([]string, len(raw.cols))
	colPos := make(map[string]int, len(raw.cols))
	for i, c := range raw.cols {
		lower[i] = strings.ToLower(c)
		colPos[lower[i]] = i
	}
	type companion struct {
		pi    int
		union bool // PUNION carrier: whole-value union, not spans
	}
	companions := make([]companion, len(raw.cols))
	for i := range companions {
		companions[i].pi = -1
	}
	claimed := map[string]bool{}
	if attach {
		for i, lc := range lower {
			if agg, inner, ok := aggInner(lc); ok {
				if agg == "PUNION" || inner == "*" || isPolicyRef(inner) {
					continue // policy carriers and COUNT(*) pair with nothing
				}
				want := "punion(" + strings.ToLower(policyCompanionName(inner)) + ")"
				if pi, found := colPos[want]; found {
					companions[i] = companion{pi: pi, union: true}
					claimed[want] = true
				}
				continue
			}
			if isPolicyRef(lc) {
				continue // policy columns are never a pairing's data side
			}
			comp := strings.ToLower(policyCompanionName(lc))
			if pi, found := colPos["punion("+comp+")"]; found {
				companions[i] = companion{pi: pi, union: true}
				claimed["punion("+comp+")"] = true
			} else if pi, found := colPos[comp]; found {
				companions[i] = companion{pi: pi}
				claimed[comp] = true
			}
		}
	}
	var visible []int
	var visibleCols []string
	for i, c := range raw.cols {
		if attach && claimed[lower[i]] {
			continue
		}
		visible = append(visible, i)
		visibleCols = append(visibleCols, c)
	}
	// Resolve each visible column's companion once; the row loop then
	// indexes by position instead of re-lowering names per cell.
	visPolicy := make([]int, len(visible))
	visUnion := make([]bool, len(visible))
	for vi, i := range visible {
		visPolicy[vi] = companions[i].pi
		visUnion[vi] = companions[i].union
	}
	// Lineage nodes per visible column, resolved once per result; nil
	// keeps the disabled path at exactly one gate check.
	var linNodes []string
	if attach && core.LineageEnabled() {
		linNodes = make([]string, len(visible))
		for vi := range visible {
			linNodes[vi] = lineageColNode(tbl, visibleCols[vi])
		}
	}
	// Batched shadow-policy decode: each distinct annotation in the
	// result set is compiled (JSON-parsed, policies instantiated, sets
	// interned) exactly once — core.CompileAnnotation memoizes globally
	// and the local map short-circuits even that lookup — then applied
	// per cell. A SELECT returning N rows over a handful of distinct
	// policies does O(distinct annotations) decodes, not O(N·cols).
	res := &Result{Columns: visibleCols, Affected: affected}
	var compiled map[string]*core.CompiledAnnotation
	compileAnn := func(ann string) (*core.CompiledAnnotation, error) {
		if c, ok := compiled[ann]; ok {
			return c, nil
		}
		c, err := core.CompileAnnotation([]byte(ann))
		if err != nil {
			return nil, err
		}
		if compiled == nil {
			compiled = make(map[string]*core.CompiledAnnotation, 4)
		}
		compiled[ann] = c
		return c, nil
	}
	// PUNION cells decode once per distinct joined value: split on the
	// separator, compile each annotation, union the per-span policy sets
	// into one whole-value set (interned operands make repeats cheap).
	var unionSets map[string]*core.PolicySet
	unionFor := func(cell string) (*core.PolicySet, error) {
		if s, ok := unionSets[cell]; ok {
			return s, nil
		}
		var set *core.PolicySet
		for _, part := range strings.Split(cell, punionSep) {
			c, err := compileAnn(part)
			if err != nil {
				return nil, err
			}
			set = set.Union(c.PolicySet())
		}
		if unionSets == nil {
			unionSets = make(map[string]*core.PolicySet, 4)
		}
		unionSets[cell] = set
		return set, nil
	}
	for _, row := range raw.rows {
		out := make([]Cell, 0, len(visible))
		for vi, i := range visible {
			v := row[i]
			var c Cell
			if pi := visPolicy[vi]; pi >= 0 && !row[pi].null && row[pi].s != "" {
				if visUnion[vi] {
					set, err := unionFor(row[pi].s)
					if err != nil {
						return nil, err
					}
					c = makeCellUnion(v, set)
				} else {
					comp, err := compileAnn(row[pi].s)
					if err != nil {
						return nil, err
					}
					c = makeCell(v, comp)
				}
			} else {
				c = makeCell(v, nil)
			}
			if linNodes != nil {
				recordCellLineage(c, linNodes[vi])
			}
			out = append(out, c)
		}
		res.Rows = append(res.Rows, out)
	}
	return res, nil
}

// makeCell builds a tracked cell from a stored value and its optional
// compiled policy annotation. The compiled annotation is shared across
// every cell (and every query) storing the same annotation bytes, so
// the per-cell work is a span attach over already-interned policy sets
// — the pointer-comparison fast paths — never JSON parsing or policy
// instantiation.
func makeCell(v value, comp *core.CompiledAnnotation) Cell {
	if v.null {
		return Cell{Null: true}
	}
	tracked := comp.Apply(v.String())
	if v.isInt {
		n := core.NewInt(v.i)
		// The annotation was stored against the digit string; merge all
		// span policies onto the integer value.
		if tracked.IsTainted() {
			n = n.WithPolicy(tracked.Policies().Policies()...)
		}
		return Cell{IsInt: true, Int: n}
	}
	return Cell{Str: tracked}
}

// makeCellUnion builds a tracked cell carrying a whole-value policy set
// — the attach path for aggregate outputs, whose policies are a union
// of the group's inputs with no meaningful byte positions.
func makeCellUnion(v value, set *core.PolicySet) Cell {
	if v.null {
		return Cell{Null: true}
	}
	if v.isInt {
		n := core.NewInt(v.i)
		if set.Len() > 0 {
			n = n.WithPolicy(set.Policies()...)
		}
		return Cell{IsInt: true, Int: n}
	}
	s := core.NewString(v.s)
	if set.Len() > 0 {
		s = s.WithPolicySet(set)
	}
	return Cell{Str: s}
}

// DB couples an engine with its RESIN SQL channel. Applications issue
// queries through DB.Query; with tracking enabled the query passes through
// the channel's filter chain (injection assertions + policy persistence),
// with tracking disabled it executes directly against the engine.
type DB struct {
	surface
	rt      *core.Runtime
	channel *core.Channel
	filter  *ResinSQLFilter

	// txMu guards engine and integrity. The engine pointer is fixed for
	// the DB's lifetime (Tx.Commit merges row versions into it rather
	// than swapping it); the lock still serializes integrity-assertion
	// registration against commits, which snapshot the assertion list.
	txMu      sync.RWMutex
	engine    *Engine
	integrity []namedAssertion
}

// Open creates an empty database bound to rt, with the default RESIN SQL
// filter installed on its query channel.
func Open(rt *core.Runtime) *DB {
	db := &DB{rt: rt, engine: NewEngine(), filter: &ResinSQLFilter{}}
	db.surface = surface{db: db}
	db.channel = core.NewChannel(rt, core.KindSQL, db.filter)
	return db
}

// Channel returns the SQL boundary channel (for adding context or extra
// filters).
func (db *DB) Channel() *core.Channel { return db.channel }

// Filter returns the RESIN SQL filter for configuring the injection
// assertions.
func (db *DB) Filter() *ResinSQLFilter { return db.filter }

// Engine returns the underlying engine (tests and benchmarks use it to
// bypass the boundary).
func (db *DB) Engine() *Engine {
	db.txMu.RLock()
	defer db.txMu.RUnlock()
	return db.engine
}

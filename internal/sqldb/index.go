package sqldb

import (
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Ordered indexes and the predicate analyzer.
//
// An orderedIndex keeps the equality bucket map of the original hash
// index — canonical equality key → row ids — and additionally a key
// sequence sorted by valueLess, so the same structure answers three
// kinds of questions:
//
//   - equality probes (`col = literal`), by bucket lookup, as before;
//   - range probes (`<`, `<=`, `>`, `>=`, and `LIKE 'prefix%'`), by
//     binary-searching the sorted sequence and concatenating the
//     buckets of the key span;
//   - ORDER BY pushdown: traversing every bucket in key order emits the
//     whole table in `ORDER BY col` order (NULL bucket first for ASC,
//     last for DESC), so the post-filter sort can be skipped. Under a
//     LIMIT the traversal runs lazily and stops after k matches, which
//     also lets `a = ? ORDER BY b LIMIT k` walk b's index instead of
//     sorting a's bucket when that visits fewer rows (preferOrderWalk in
//     engine.go).
//
// Under MVCC the buckets are a *superset*: a row id stays in the bucket
// of a superseded value until vacuum drains the stale reference
// (engine.go), and tombstoned rows keep their pairs until their entries
// are reclaimed. Traversals therefore pair every candidate id with the
// key it was found under, and the snapshot evaluation accepts the pair
// only when the version visible at the reader's snapshot actually
// carries that key — that one rule restores exactness: no duplicates
// across the buckets of a range, and ORDER BY pushdown emits each row
// at its visible key position.
//
// Soundness invariant (docs/SQL.md §4): a probe derived from a conjunct
// on the WHERE AND spine returns a superset of the rows satisfying that
// conjunct, and the engine re-evaluates the full WHERE against every
// candidate. Index use can therefore change only performance — never
// results, row order, or the shadow policy columns that ride along.
// index_property_test.go holds a differential harness pinning exactly
// that against a forced-scan twin — including under concurrent writer
// churn, at one shared snapshot.

// sortCalls counts result post-sorts in SELECT execution. ORDER BY
// pushdown's contract is that an ordered traversal skips the sort;
// tests and benchmarks observe the counter through SortCount to pin
// that down, mirroring ParseCount and TokenizeCount.
var sortCalls atomic.Uint64

// SortCount returns the number of ORDER BY result sorts performed so
// far in this process. A SELECT served in index order does not move it.
func SortCount() uint64 { return sortCalls.Load() }

// limitStops counts LIMIT short-circuits: SELECTs whose candidate walk
// stopped early because k rows were already in final order (an ordered
// traversal, or no ORDER BY). Top-k over an ordered index is O(k), and
// tests observe this counter through LimitStopCount to pin that down.
var limitStops atomic.Uint64

// LimitStopCount returns the number of LIMIT short-circuits so far in
// this process. A SELECT that had to collect (or sort) every matching
// row before truncating does not move it.
func LimitStopCount() uint64 { return limitStops.Load() }

// orderedIndex is an ordered index over one column: equality buckets
// keyed by canonical equality key, plus the distinct non-null values in
// valueLess order, each kept beside its canonical key so a traversal
// allocates nothing per key. Buckets always hold ascending row ids — ids
// are allocated monotonically and entries append in id order, so bucket
// order is scan-equivalent row order and candidate lists inherit
// stable-sort equivalence without re-sorting. NULLs live only in the
// reserved bucket: no range ever matches NULL, so the sorted sequence
// excludes them; ordered traversals splice the NULL bucket in
// explicitly at the NULLS-first (ASC) or NULLS-last (DESC) end.
//
// Writers under Engine.mu maintain the structure on INSERT, UPDATE and
// CREATE INDEX; DELETE tombstones the row and leaves its pairs for
// vacuum. add is duplicate-safe: re-adding a (value, id) pair that a
// pending stale reference never drained is a no-op.
type orderedIndex struct {
	m    map[string][]uint64
	keys []sortedKey // distinct non-null values, sorted by valueLess
}

// sortedKey is one entry of the sorted sequence: a value and its
// canonical equality key (indexKey(v)), the key of its bucket.
type sortedKey struct {
	v   value
	key string
}

func newOrderedIndex() *orderedIndex {
	return &orderedIndex{m: make(map[string][]uint64)}
}

// search returns the first position in keys whose value is >= v.
func (ix *orderedIndex) search(v value) int {
	return sort.Search(len(ix.keys), func(i int) bool { return !valueLess(ix.keys[i].v, v) })
}

func (ix *orderedIndex) add(v value, id uint64) {
	k := indexKey(v)
	bucket, ok := ix.m[k]
	if !ok && !v.null {
		i := ix.search(v)
		ix.keys = append(ix.keys, sortedKey{})
		copy(ix.keys[i+1:], ix.keys[i:])
		ix.keys[i] = sortedKey{v: v, key: k}
	}
	// Keep ids ascending: INSERT appends monotonically growing ids
	// (fast path); UPDATE moves an existing row into another bucket at
	// an arbitrary id (binary insert). A pair already present — the row
	// moved back to a value whose stale reference has not drained yet —
	// stays single.
	if n := len(bucket); n == 0 || bucket[n-1] < id {
		ix.m[k] = append(bucket, id)
		return
	}
	i := sort.Search(len(bucket), func(i int) bool { return bucket[i] >= id })
	if i < len(bucket) && bucket[i] == id {
		return
	}
	bucket = append(bucket, 0)
	copy(bucket[i+1:], bucket[i:])
	bucket[i] = id
	ix.m[k] = bucket
}

func (ix *orderedIndex) remove(v value, id uint64) {
	k := indexKey(v)
	bucket := ix.m[k]
	i := sort.Search(len(bucket), func(i int) bool { return bucket[i] >= id })
	if i >= len(bucket) || bucket[i] != id {
		return
	}
	bucket = append(bucket[:i], bucket[i+1:]...)
	if len(bucket) > 0 {
		ix.m[k] = bucket
		return
	}
	delete(ix.m, k)
	if !v.null {
		if j := ix.search(v); j < len(ix.keys) && ix.keys[j].key == k {
			ix.keys = append(ix.keys[:j], ix.keys[j+1:]...)
		}
	}
}

// keySpan is the part of an ordered index a traversal visits: the single
// bucket key when key is set (an equality probe), otherwise the sorted
// positions [start, end), with the NULL bucket spliced in at the
// NULLS-first (ASC) or NULLS-last (DESC) end when nulls is set.
type keySpan struct {
	key        string
	start, end int
	nulls      bool
}

// all is the span of a whole-index traversal: every key, NULLs included.
func (ix *orderedIndex) all() keySpan {
	return keySpan{end: len(ix.keys), nulls: true}
}

// span returns the key span covered by the given bounds; a nil bound is
// unbounded on that side. Ranges never match NULL.
func (ix *orderedIndex) span(lo, hi *value, loIncl, hiIncl bool) keySpan {
	start := 0
	if lo != nil {
		if loIncl {
			start = ix.search(*lo)
		} else {
			start = sort.Search(len(ix.keys), func(i int) bool { return valueLess(*lo, ix.keys[i].v) })
		}
	}
	end := len(ix.keys)
	if hi != nil {
		if hiIncl {
			end = sort.Search(len(ix.keys), func(i int) bool { return valueLess(*hi, ix.keys[i].v) })
		} else {
			end = ix.search(*hi)
		}
	}
	if end < start {
		end = start
	}
	return keySpan{start: start, end: end}
}

// walk is the one traversal primitive: it calls fn with every (key, id)
// pair of the span in `ORDER BY col` order — keys ascending (descending
// for desc), the NULL bucket first for ASC and last for DESC, each bucket
// in ascending id order — until fn returns false. That is exactly the
// order a stable sort of the scanned visible rows produces, which is
// what makes skipping that sort result-neutral. Ids superseded under a
// key survive here until vacuum; the visible-key rule drops them.
// Callers hold Engine.mu: writers shift buckets and the key sequence in
// place.
func (ix *orderedIndex) walk(sp keySpan, desc bool, fn func(key string, id uint64) bool) {
	bucket := func(k string) bool {
		for _, id := range ix.m[k] {
			if !fn(k, id) {
				return false
			}
		}
		return true
	}
	if sp.key != "" {
		bucket(sp.key)
		return
	}
	nullKey := indexKey(nullValue())
	if sp.nulls && !desc && !bucket(nullKey) {
		return
	}
	if desc {
		for i := sp.end - 1; i >= sp.start; i-- {
			if !bucket(ix.keys[i].key) {
				return
			}
		}
	} else {
		for i := sp.start; i < sp.end; i++ {
			if !bucket(ix.keys[i].key) {
				return
			}
		}
	}
	if sp.nulls && desc {
		bucket(nullKey)
	}
}

// indexProbe is one usable access path the predicate analyzer found: an
// equality key, or a key range (either side optional) on an ordered
// index. The candidates it yields are a superset of the rows matching
// the originating conjunct; the caller re-evaluates the full WHERE and
// applies the visible-key rule.
type indexProbe struct {
	ci             int
	ix             *orderedIndex
	eq             *value
	lo, hi         *value
	loIncl, hiIncl bool
}

// span returns the probe's key span. An equality bucket is a single key,
// so it is simultaneously in key order and in row order.
func (p *indexProbe) span() keySpan {
	if p.eq != nil {
		return keySpan{key: indexKey(*p.eq)}
	}
	return p.ix.span(p.lo, p.hi, p.loIncl, p.hiIncl)
}

// indexCand is one candidate an index traversal emitted: a row id and
// the bucket key it was found under. The snapshot evaluation accepts
// the candidate only if the version visible to the reader carries key —
// the tombstone/stale-aware traversal rule (see the package comment).
type indexCand struct {
	key string
	id  uint64
}

// rowOrderCandidates returns the probe's candidates in ascending row id
// order — the order a scan would visit them. A row whose value moved
// between two keys of the range appears once per key; the visible-key
// rule keeps exactly one.
func (p *indexProbe) rowOrderCandidates() []indexCand {
	var cand []indexCand
	p.ix.walk(p.span(), false, func(k string, id uint64) bool {
		cand = append(cand, indexCand{key: k, id: id})
		return true
	})
	if p.eq == nil {
		sort.Slice(cand, func(i, j int) bool { return cand[i].id < cand[j].id })
	}
	return cand
}

// colBounds accumulates the analyzable constraints on one column while
// walking the AND spine. Conjuncts only ever tighten: the tightest lo
// and hi survive, and the first equality wins outright (an equality
// bucket is a superset of the rows matching *all* conjuncts on the
// column, since rows matching the WHERE must match each conjunct).
type colBounds struct {
	ci             int
	eq             *value
	lo, hi         *value
	loIncl, hiIncl bool
}

func (cb *colBounds) addLo(v value, incl bool) {
	if cb.lo == nil || valueCompare(v, *cb.lo) > 0 || (valueCompare(v, *cb.lo) == 0 && !incl) {
		cb.lo, cb.loIncl = &v, incl
	}
}

func (cb *colBounds) addHi(v value, incl bool) {
	if cb.hi == nil || valueCompare(v, *cb.hi) < 0 || (valueCompare(v, *cb.hi) == 0 && !incl) {
		cb.hi, cb.hiIncl = &v, incl
	}
}

// eqLiteral converts an equality operand into a probe value. Any
// literal kind works: equality buckets key on rendered form, matching
// valueCompare's coercion (int 1 and text '1' share a key).
func eqLiteral(lit Expr) (value, bool) {
	switch v := lit.(type) {
	case *StringLit:
		return textValue(v.Val.Raw()), true
	case *IntLit:
		return intValue(v.Val), true
	}
	return value{}, false
}

// rangeLiteral converts a range operand into a probe value, requiring
// the comparison the scan would perform to agree with the index order.
// An INT column's index is in numeric order and its cells compare
// numerically only against integer literals — `col < '10'` compares
// *textually* under the dialect's coercion, so string bounds on INT
// columns fall back to the scan. TEXT columns compare textually against
// every literal (integer operands render to digits), matching their
// index order, so both kinds are usable.
func rangeLiteral(lit Expr, typ ColType) (value, bool) {
	switch v := lit.(type) {
	case *IntLit:
		if typ == ColInt {
			return intValue(v.Val), true
		}
		return textValue(strconv.FormatInt(v.Val, 10)), true
	case *StringLit:
		if typ == ColInt {
			return value{}, false
		}
		return textValue(v.Val.Raw()), true
	}
	return value{}, false
}

// likePrefix extracts the literal prefix of a LIKE pattern usable as a
// key range: the pattern must end in `%`, the prefix before it must be
// non-empty (an empty prefix matches everything — no range to probe)
// and wildcard-free. likeMatch treats every other byte literally (there
// is no escape syntax), so `prefix ≤ s < successor(prefix)` in byte
// order is exactly the set of strings the pattern's prefix admits.
func likePrefix(pattern string) (string, bool) {
	if len(pattern) < 2 || pattern[len(pattern)-1] != '%' {
		return "", false
	}
	prefix := pattern[:len(pattern)-1]
	if strings.ContainsAny(prefix, "%_") {
		return "", false
	}
	return prefix, true
}

// prefixSuccessor returns the smallest string greater than every string
// with the given prefix — the prefix with its last non-0xff byte
// incremented. An all-0xff prefix has no successor (unbounded above).
func prefixSuccessor(prefix string) (string, bool) {
	b := []byte(prefix)
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] < 0xff {
			b[i]++
			return string(b[:i+1]), true
		}
	}
	return "", false
}

// collectBounds walks the AND spine of a WHERE expression accumulating
// per-column constraints from `=`, range, and `LIKE 'prefix%'`
// conjuncts over indexed columns. Anything else — OR, NOT, un-indexed
// columns, kind-mismatched literals, NULL literals (no comparison
// matches NULL) — contributes nothing and is left to the re-evaluation
// of the full WHERE.
func (t *table) collectBounds(ex Expr, cons []colBounds) []colBounds {
	b, ok := ex.(*Binary)
	if !ok {
		return cons
	}
	if b.Op == "AND" {
		return t.collectBounds(b.R, t.collectBounds(b.L, cons))
	}
	op := b.Op
	var cr *ColumnRef
	var lit Expr
	if c, isCol := b.L.(*ColumnRef); isCol {
		cr, lit = c, b.R
	} else if c, isCol := b.R.(*ColumnRef); isCol {
		cr, lit = c, b.L
		switch op { // mirror: `5 < col` is `col > 5`
		case "<":
			op = ">"
		case "<=":
			op = ">="
		case ">":
			op = "<"
		case ">=":
			op = "<="
		case "LIKE":
			return cons // a column used as the pattern is not a prefix probe
		}
	} else {
		return cons
	}
	// Qualified references ("t.c" on this table) probe like plain ones;
	// references that do not resolve here contribute nothing and fall
	// back to the scan (the full WHERE still re-evaluates them).
	ci, err := t.resolveCol(cr.Name)
	if err != nil || t.indexes[ci] == nil {
		return cons
	}
	var cb *colBounds
	for i := range cons {
		if cons[i].ci == ci {
			cb = &cons[i]
			break
		}
	}
	if cb == nil {
		cons = append(cons, colBounds{ci: ci})
		cb = &cons[len(cons)-1]
	}
	switch op {
	case "=":
		if v, ok := eqLiteral(lit); ok && cb.eq == nil {
			cb.eq = &v
		}
	case "<", "<=", ">", ">=":
		v, ok := rangeLiteral(lit, t.cols[ci].Type)
		if !ok {
			return cons
		}
		switch op {
		case "<":
			cb.addHi(v, false)
		case "<=":
			cb.addHi(v, true)
		case ">":
			cb.addLo(v, false)
		case ">=":
			cb.addLo(v, true)
		}
	case "LIKE":
		sl, isStr := lit.(*StringLit)
		if !isStr || t.cols[ci].Type != ColText {
			return cons // digit-string order ≠ numeric order on INT columns
		}
		prefix, ok := likePrefix(sl.Val.Raw())
		if !ok {
			return cons
		}
		cb.addLo(textValue(prefix), true)
		if succ, bounded := prefixSuccessor(prefix); bounded {
			cb.addHi(textValue(succ), false)
		}
	}
	return cons
}

// analyzeProbe is the predicate analyzer: it inspects the AND spine of
// a WHERE expression and returns the best usable index access path, or
// nil when every conjunct falls back to the scan. Preference order:
// an equality probe (single bucket), then a two-sided range, then any
// one-sided range — ties in first-seen spine order, so the choice is
// deterministic.
func (t *table) analyzeProbe(where Expr) *indexProbe {
	if where == nil || len(t.indexes) == 0 {
		return nil
	}
	cons := t.collectBounds(where, nil)
	best := -1
	score := func(cb *colBounds) int {
		switch {
		case cb.eq != nil:
			return 3
		case cb.lo != nil && cb.hi != nil:
			return 2
		case cb.lo != nil || cb.hi != nil:
			return 1
		}
		return 0
	}
	for i := range cons {
		if s := score(&cons[i]); s > 0 && (best < 0 || s > score(&cons[best])) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	cb := &cons[best]
	return &indexProbe{
		ci: cb.ci, ix: t.indexes[cb.ci],
		eq: cb.eq, lo: cb.lo, hi: cb.hi, loIncl: cb.loIncl, hiIncl: cb.hiIncl,
	}
}

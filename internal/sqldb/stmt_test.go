package sqldb

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"resin/internal/core"
	"resin/internal/sanitize"
)

// TestPreparedStatementBasics: a statement mixing inline literals and
// `?` placeholders prepares once and executes with bound values.
func TestPreparedStatementBasics(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE users (name TEXT, role TEXT, age INT)")

	ins := db.MustPrepare("INSERT INTO users (name, role, age) VALUES (?, 'user', ?)")
	if ins.NumArgs() != 2 {
		t.Fatalf("NumArgs = %d, want 2", ins.NumArgs())
	}
	if n, err := ins.Exec("alice", 30); err != nil || n != 1 {
		t.Fatalf("Exec = %d, %v", n, err)
	}
	if n, err := ins.Exec("bob", 40); err != nil || n != 1 {
		t.Fatalf("Exec = %d, %v", n, err)
	}

	sel := db.MustPrepare("SELECT name, age FROM users WHERE role = 'user' AND age > ?")
	res, err := sel.Query(35)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Get(0, "name").Str.Raw() != "bob" {
		t.Fatalf("got %d rows, first name %q", res.Len(), res.Get(0, "name").Str.Raw())
	}

	upd := db.MustPrepare("UPDATE users SET age = ? WHERE name = ?")
	if n, err := upd.Exec(31, "alice"); err != nil || n != 1 {
		t.Fatalf("update = %d, %v", n, err)
	}
	del := db.MustPrepare("DELETE FROM users WHERE name = ?")
	if n, err := del.Exec("bob"); err != nil || n != 1 {
		t.Fatalf("delete = %d, %v", n, err)
	}
}

// TestPreparedZeroTokenizeZeroParse pins the prepared-statement
// contract: after Prepare, repeated executions invoke neither the
// tokenizer nor the parser.
func TestPreparedZeroTokenizeZeroParse(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE t (id INT, v TEXT)")
	ins := db.MustPrepare("INSERT INTO t (id, v) VALUES (?, ?)")
	sel := db.MustPrepare("SELECT v FROM t WHERE id = ?")
	if _, err := sel.Query(0); err != nil { // warm the schema-derived plan state
		t.Fatal(err)
	}

	lex0, parse0 := TokenizeCount(), ParseCount()
	for i := 0; i < 200; i++ {
		if _, err := ins.Exec(i, "v"); err != nil {
			t.Fatal(err)
		}
		res, err := sel.Query(i)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 1 {
			t.Fatalf("row %d missing", i)
		}
	}
	if lexed := TokenizeCount() - lex0; lexed != 0 {
		t.Errorf("prepared executions tokenized %d times, want 0", lexed)
	}
	if parsed := ParseCount() - parse0; parsed != 0 {
		t.Errorf("prepared executions parsed %d times, want 0", parsed)
	}
}

// TestPreparedSharesPlanWithSplicedText: a prepared statement and the
// spliced text of the same shape share one plan-cache template (the
// canonical key replaces literals and placeholders alike with `?`).
func TestPreparedSharesPlanWithSplicedText(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE t (id INT, v TEXT)")
	db.MustExec("INSERT INTO t (id, v) VALUES (1, 'x')")
	if _, err := db.QueryRaw("SELECT v FROM t WHERE id = 7"); err != nil {
		t.Fatal(err)
	}
	misses := db.Filter().PlanStats().Misses
	st := db.MustPrepare("SELECT v FROM t WHERE id = ?")
	if _, err := st.Query(1); err != nil {
		t.Fatal(err)
	}
	if after := db.Filter().PlanStats().Misses; after != misses {
		t.Errorf("preparing the spliced shape re-compiled the template: misses %d -> %d", misses, after)
	}
}

// TestBindArity: placeholder count and argument count must match, on
// every query surface.
func TestBindArity(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE t (a TEXT, b TEXT)")

	st := db.MustPrepare("INSERT INTO t (a, b) VALUES (?, ?)")
	if _, err := st.Exec("one"); err == nil || !strings.Contains(err.Error(), "2 placeholder(s) but 1") {
		t.Errorf("missing arg: %v", err)
	}
	if _, err := st.Exec("one", "two", "three"); err == nil || !strings.Contains(err.Error(), "2 placeholder(s) but 3") {
		t.Errorf("extra arg: %v", err)
	}

	if _, err := db.QueryRaw("SELECT a FROM t WHERE a = ?"); err == nil {
		t.Error("variadic DB.Query accepted a placeholder with no argument")
	}
	if _, err := db.QueryRaw("SELECT a FROM t", "stray"); err == nil {
		t.Error("variadic DB.Query accepted an argument with no placeholder")
	}

	tx := db.Begin()
	if _, err := tx.QueryRaw("SELECT a FROM t WHERE a = ?"); err == nil {
		t.Error("Tx.Query accepted a placeholder with no argument")
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	view := &View{on: surface{db: db, spec: db.Engine()}}
	if _, err := view.QueryRaw("SELECT a FROM t WHERE a = ?"); err == nil {
		t.Error("View.Query accepted a placeholder with no argument")
	}
}

// TestVariadicQueryBindsValues: the variadic DB.Query form binds
// tracked and plain values through the filter channel.
func TestVariadicQueryBindsValues(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE kv (k TEXT, v INT)")
	tainted := sanitize.Taint(core.NewString("key-1"), "form:k")
	if _, err := db.Query(core.NewString("INSERT INTO kv (k, v) VALUES (?, ?)"), tainted, 7); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(core.NewString("SELECT k, v FROM kv WHERE k = ?"), "key-1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Get(0, "v").Int.Value() != 7 {
		t.Fatalf("got %d rows", res.Len())
	}
	if !res.Get(0, "k").Str.Policies().Any(sanitize.IsUntrusted) {
		t.Error("bound tracked value lost its policy through the variadic path")
	}
}

// TestBoundPolicyRoundTrip is the satellite acceptance test: an
// UntrustedData-tainted value bound via `?` must come back from SELECT
// carrying the same policies, decoded through the batched
// CompileAnnotation path, with the re-attached set interned — two
// reads of the same annotation share one policy-set pointer.
func TestBoundPolicyRoundTrip(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE notes (id INT, body TEXT)")

	tainted := sanitize.Taint(core.NewString("hello <script>"), "form:body")
	ins := db.MustPrepare("INSERT INTO notes (id, body) VALUES (?, ?)")
	if _, err := ins.Exec(1, tainted); err != nil {
		t.Fatal(err)
	}

	sel := db.MustPrepare("SELECT body FROM notes WHERE id = ?")
	res1, err := sel.Query(1)
	if err != nil {
		t.Fatal(err)
	}
	got := res1.Get(0, "body").Str
	if got.Raw() != "hello <script>" {
		t.Fatalf("body = %q", got.Raw())
	}
	if !got.IsTainted() || !got.Policies().Any(sanitize.IsUntrusted) {
		t.Fatal("bound value came back without its UntrustedData policy")
	}
	// Every byte carries the policy (Taint annotates the whole value).
	if !got.HasPolicyEverywhere(sanitize.IsUntrusted) {
		t.Error("policy does not cover the whole round-tripped value")
	}

	// The batched decode path interns the re-attached set; a second
	// read of the same stored annotation must share the same pointer
	// (core.CompileAnnotation memoizes per annotation bytes).
	res2, err := sel.Query(1)
	if err != nil {
		t.Fatal(err)
	}
	ps1 := res1.Get(0, "body").Str.PoliciesAt(0)
	ps2 := res2.Get(0, "body").Str.PoliciesAt(0)
	if ps1 != ps2 {
		t.Error("two reads of one annotation decoded to different policy-set pointers")
	}
	if ps1.Intern() != ps1 {
		t.Error("round-tripped policy set is not the interned instance")
	}

	// Tainted integers round-trip too: the annotation stored against
	// the digit string merges back onto the integer cell.
	db.MustExec("CREATE TABLE scores (id INT, score INT)")
	score := core.NewInt(42).WithPolicy(&sanitize.UntrustedData{Source: "form:score"})
	if _, err := db.Query(core.NewString("INSERT INTO scores (id, score) VALUES (?, ?)"), 1, score); err != nil {
		t.Fatal(err)
	}
	sres, err := db.Query(core.NewString("SELECT score FROM scores WHERE id = ?"), 1)
	if err != nil {
		t.Fatal(err)
	}
	back := sres.Get(0, "score").Int
	if back.Value() != 42 || !back.Policies().Any(sanitize.IsUntrusted) {
		t.Errorf("tainted int round trip: value %d tainted %v", back.Value(), back.IsTainted())
	}
}

// TestBoundArgsSkipInjectionAssertions: both §5.3 strategies inspect
// query text, so a bound tainted value passes by construction — while
// the same payload spliced into text is still rejected.
func TestBoundArgsSkipInjectionAssertions(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE users (name TEXT)")
	db.Filter().RequireSanitizedMarkers(true)
	db.Filter().RejectTaintedStructure(true)

	payload := sanitize.Taint(core.NewString("x' OR 'a' = 'a"), "form:name")

	spliced := core.Concat(core.NewString("SELECT name FROM users WHERE name = '"), payload, core.NewString("'"))
	if _, err := db.Query(spliced); err == nil {
		t.Fatal("spliced payload was not rejected")
	}

	st := db.MustPrepare("SELECT name FROM users WHERE name = ?")
	res, err := st.Query(payload)
	if err != nil {
		t.Fatalf("bound payload rejected: %v", err)
	}
	if res.Len() != 0 {
		t.Fatalf("payload matched %d rows; it must be an inert value", res.Len())
	}
	// Same through the variadic text path.
	if _, err := db.Query(core.NewString("SELECT name FROM users WHERE name = ?"), payload); err != nil {
		t.Fatalf("variadic bound payload rejected: %v", err)
	}
}

// TestPreparedTaintedTextStillChecked: binding exempts values, not the
// statement text — prepared text that itself carries untrusted
// structure still fails the assertions at execution time.
func TestPreparedTaintedTextStillChecked(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE t (a TEXT)")
	evil := core.Concat(
		core.NewString("SELECT a FROM t WHERE a = '' OR "),
		sanitize.Taint(core.NewString("'x' = 'x'"), "form:q"),
	)
	st, err := db.Prepare(evil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Query(); err != nil {
		t.Fatalf("assertions off: %v", err)
	}
	db.Filter().RejectTaintedStructure(true)
	if _, err := st.Query(); err == nil {
		t.Error("tainted prepared text passed the strategy-2 assertion")
	}
	db.Filter().RejectTaintedStructure(false)
	db.Filter().RequireSanitizedMarkers(true)
	if _, err := st.Query(); err == nil {
		t.Error("tainted prepared text passed the strategy-1 assertion")
	}
}

// TestUntrustedQuestionMarkIsStructure: an attacker-supplied `?` must
// not mint a binding slot. Strategy 2 rejects it as tainted structure;
// the auto-sanitizing tokenizer swallows it into a value.
func TestUntrustedQuestionMarkIsStructure(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE t (a TEXT)")
	db.MustExec("INSERT INTO t (a) VALUES ('x')")

	q := core.Concat(
		core.NewString("SELECT a FROM t WHERE a = "),
		sanitize.Taint(core.NewString("?"), "form:a"),
	)

	db.Filter().RejectTaintedStructure(true)
	if _, err := db.Query(q, "x"); err == nil {
		t.Error("untrusted ? passed the tainted-structure assertion")
	}
	db.Filter().RejectTaintedStructure(false)

	db.Filter().AutoSanitizeUntrusted(true)
	// Under auto-sanitize the untrusted ? lexes as a value, so there is
	// no placeholder to bind: the zero-argument call succeeds and the
	// literal "?" matches nothing.
	res, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Errorf("untrusted ? matched %d rows under auto-sanitize", res.Len())
	}
}

// TestPreparedAutoSanitizeFallback: a prepared statement whose text
// carries untrusted bytes re-lexes under the auto-sanitizing tokenizer
// when that mode is on, neutralizing the untrusted bytes exactly as the
// text path would.
func TestPreparedAutoSanitizeFallback(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE t (a TEXT)")
	db.MustExec("INSERT INTO t (a) VALUES ('z')")

	// The attacker controls the whole comparison tail: spliced as text
	// it is an always-true disjunction; as one auto-sanitized value it
	// is an inert string that matches nothing.
	evil := core.Concat(
		core.NewString("SELECT a FROM t WHERE a = "),
		sanitize.Taint(core.NewString("'x' OR 'y' = 'y'"), "form:q"),
	)
	st, err := db.Prepare(evil)
	if err != nil {
		t.Fatal(err)
	}
	// Without auto-sanitize the tainted text executes as written and
	// the always-true OR matches the row.
	res, err := st.Query()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("baseline: %d rows", res.Len())
	}
	db.Filter().AutoSanitizeUntrusted(true)
	res, err = st.Query()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Errorf("auto-sanitize left the untrusted structure live: %d rows", res.Len())
	}
}

// TestPrepareSingleTokenize: Prepare tokenizes the text exactly once
// (the strategy-2 verdict reuses the same token stream).
func TestPrepareSingleTokenize(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE t (a TEXT)")
	lex0 := TokenizeCount()
	if _, err := db.PrepareRaw("SELECT a FROM t WHERE a = ?"); err != nil {
		t.Fatal(err)
	}
	if n := TokenizeCount() - lex0; n != 1 {
		t.Errorf("Prepare tokenized %d times, want 1", n)
	}
}

// TestPrepareTaintedLexErrorDeferred: untrusted bytes that break the
// standard lexer (an unbalanced quote) must not make Prepare fail
// outright — under auto-sanitize the text path accepts them as inert
// values, so the prepared form must behave identically per execution.
func TestPrepareTaintedLexErrorDeferred(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE t (a TEXT)")
	db.MustExec("INSERT INTO t (a) VALUES ('x')")

	evil := core.Concat(
		core.NewString("SELECT a FROM t WHERE a = "),
		sanitize.Taint(core.NewString("'x"), "form:a"), // unterminated quote
	)
	// Text-path baselines: standard mode errors, auto mode neutralizes.
	if _, err := db.Query(evil); err == nil {
		t.Fatal("text path accepted an unterminated literal without auto-sanitize")
	}

	st, err := db.Prepare(evil)
	if err != nil {
		t.Fatalf("Prepare must defer the lex verdict to execution, got %v", err)
	}
	if _, err := st.Query(); err == nil {
		t.Error("prepared execution without auto-sanitize accepted the unterminated literal")
	}
	db.Filter().AutoSanitizeUntrusted(true)
	res, err := st.Query()
	if err != nil {
		t.Fatalf("prepared execution under auto-sanitize: %v", err)
	}
	if res.Len() != 0 {
		t.Errorf("neutralized payload matched %d rows", res.Len())
	}
	// Fully-trusted broken text still fails at Prepare, eagerly.
	if _, err := db.PrepareRaw("SELECT a FROM t WHERE a = 'x"); err == nil {
		t.Error("trusted unterminated literal prepared successfully")
	}
}

// TestPreparedOnTx: statements prepared inside a transaction execute
// against the speculative state and die with it.
func TestPreparedOnTx(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE acct (owner TEXT, balance INT)")
	db.MustExec("INSERT INTO acct (owner, balance) VALUES ('alice', 100)")

	tx := db.Begin()
	upd, err := tx.PrepareRaw("UPDATE acct SET balance = ? WHERE owner = ?")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := upd.Exec(70, "alice"); err != nil || n != 1 {
		t.Fatalf("tx update = %d, %v", n, err)
	}
	// Outside the tx the write is invisible.
	res, err := db.Query(core.NewString("SELECT balance FROM acct WHERE owner = ?"), "alice")
	if err != nil {
		t.Fatal(err)
	}
	if res.Get(0, "balance").Int.Value() != 100 {
		t.Error("speculative write leaked")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	res, err = db.Query(core.NewString("SELECT balance FROM acct WHERE owner = ?"), "alice")
	if err != nil {
		t.Fatal(err)
	}
	if res.Get(0, "balance").Int.Value() != 70 {
		t.Error("committed write missing")
	}
	if _, err := upd.Exec(0, "alice"); err != ErrTxDone {
		t.Errorf("post-commit exec = %v, want ErrTxDone", err)
	}
}

// TestTxViewMustExecParity: the satellite parity methods exist and
// panic on bad statements like DB.MustExec does.
func TestTxViewMustExecParity(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE t (a TEXT)")
	tx := db.Begin()
	tx.MustExec("INSERT INTO t (a) VALUES ('in-tx')")
	if n, err := tx.Exec(core.NewString("UPDATE t SET a = ? WHERE a = ?"), "renamed", "in-tx"); err != nil || n != 1 {
		t.Fatalf("Tx.Exec = %d, %v", n, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n, err := db.Exec(core.NewString("DELETE FROM t WHERE a = ?"), "renamed"); err != nil || n != 1 {
		t.Fatalf("DB.Exec = %d, %v", n, err)
	}

	view := &View{on: surface{db: db, spec: db.Engine()}}
	view.MustExec("SELECT a FROM t")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("View.MustExec did not panic on a bad statement")
			}
		}()
		view.MustExec("SELECT nope FROM t")
	}()
}

// TestPreparedSchemaChanges: prepared statements survive DDL around
// them — a dropped table fails cleanly, a recreated one works again
// (the plan's schema-derived state recompiles via the generation).
func TestPreparedSchemaChanges(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE t (a TEXT)")
	st := db.MustPrepare("SELECT a FROM t WHERE a = ?")
	if _, err := st.Query("x"); err != nil {
		t.Fatal(err)
	}
	db.MustExec("DROP TABLE t")
	if _, err := st.Query("x"); err == nil {
		t.Error("query against a dropped table succeeded")
	}
	db.MustExec("CREATE TABLE t (a TEXT)")
	db.MustExec("INSERT INTO t (a) VALUES ('x')")
	res, err := st.Query("x")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Errorf("recreated table: %d rows", res.Len())
	}
}

// TestLimitPlaceholder: a LIMIT count is bindable like any other slot;
// inline counts still fold into the plan (plan_test pins that part).
func TestLimitPlaceholder(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE t (a TEXT)")
	for _, v := range []string{"a", "b", "c", "d"} {
		db.MustExec("INSERT INTO t (a) VALUES ('" + v + "')")
	}
	st := db.MustPrepare("SELECT a FROM t ORDER BY a LIMIT ?")
	for _, want := range []int{0, 2, 4, 10} {
		res, err := st.Query(want)
		if err != nil {
			t.Fatalf("LIMIT %d: %v", want, err)
		}
		if n := min(want, 4); res.Len() != n {
			t.Errorf("LIMIT %d: got %d rows, want %d", want, res.Len(), n)
		}
	}
	if _, err := st.Query(-1); err == nil {
		t.Error("negative LIMIT bound successfully")
	}
	if _, err := st.Query("x"); err == nil {
		t.Error("string LIMIT bound successfully")
	}
	// Direct text execution binds the same way.
	res, err := db.QueryRaw("SELECT a FROM t ORDER BY a LIMIT ?", 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Errorf("text-path LIMIT ?: got %d rows, want 3", res.Len())
	}
}

// TestBindUnsupportedType: binding a value the dialect cannot represent
// fails with a descriptive error naming the argument.
func TestBindUnsupportedType(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE t (a TEXT)")
	st := db.MustPrepare("INSERT INTO t (a) VALUES (?)")
	if _, err := st.Exec(3.14); err == nil || !strings.Contains(err.Error(), "cannot bind float64") {
		t.Errorf("float bind: %v", err)
	}
	if _, err := st.Exec(nil); err != nil { // nil binds as NULL
		t.Errorf("nil bind: %v", err)
	}
}

// TestInjectionErrorClampsBounds is the satellite regression test: a
// hostile Start/End pair must render a diagnostic, never panic.
func TestInjectionErrorClampsBounds(t *testing.T) {
	cases := []InjectionError{
		{Strategy: "s", Query: "SELECT 1", Start: -3, End: 4},
		{Strategy: "s", Query: "SELECT 1", Start: -10, End: -5},
		{Strategy: "s", Query: "SELECT 1", Start: 6, End: 3},
		{Strategy: "s", Query: "SELECT 1", Start: 2, End: 9999},
		{Strategy: "s", Query: "", Start: -1, End: 1},
	}
	for i := range cases {
		msg := cases[i].Error()
		if !strings.Contains(msg, "SQL injection assertion") {
			t.Errorf("case %d: malformed message %q", i, msg)
		}
	}
}

// TestOneShotQueryCounts pins the tokenizer and parser work of a warm
// one-shot text query on every query surface, for each combination of
// the strategy-2 and auto-sanitize assertions over trusted and untrusted
// text. The pins are the counts of the text path before text queries
// became one-shot prepared statements: one lex and no parse, except that
// strategy 2 under auto-sanitize judges a standard lex and executes an
// auto-sanitizing one. (View queries then re-parsed on every call; they
// now share the plan cache, so they pin the same counts.) In particular
// a one-shot query under auto-sanitize lexes only in that mode — not a
// standard lex at compile time followed by an auto lex at execution.
func TestOneShotQueryCounts(t *testing.T) {
	for _, surf := range []string{"DB", "Tx", "View"} {
		for _, s2 := range []bool{false, true} {
			for _, auto := range []bool{false, true} {
				for _, untrusted := range []bool{false, true} {
					name := fmt.Sprintf("%s/s2=%v/auto=%v/untrusted=%v", surf, s2, auto, untrusted)
					t.Run(name, func(t *testing.T) {
						db := openDB(t)
						db.MustExec("CREATE TABLE t (a TEXT)")
						db.MustExec("INSERT INTO t (a) VALUES ('x')")
						db.Filter().RejectTaintedStructure(s2)
						db.Filter().AutoSanitizeUntrusted(auto)
						val := core.NewString("x")
						if untrusted {
							val = sanitize.Taint(val, "form:a")
						}
						q := core.Concat(core.NewString("SELECT a FROM t WHERE a = '"), val, core.NewString("'"))
						var query func(core.String, ...any) (*Result, error)
						switch surf {
						case "DB":
							query = db.Query
						case "Tx":
							tx := db.Begin()
							defer tx.Rollback() //nolint:errcheck
							query = tx.Query
						case "View":
							query = (&View{on: surface{db: db, spec: db.Engine()}}).Query
						}
						if _, err := query(q); err != nil { // warm the plan
							t.Fatal(err)
						}
						lex0, parse0 := TokenizeCount(), ParseCount()
						res, err := query(q)
						if err != nil {
							t.Fatal(err)
						}
						if res.Len() != 1 {
							t.Fatalf("got %d rows, want 1", res.Len())
						}
						wantLex := uint64(1)
						if s2 && auto {
							wantLex = 2
						}
						if got := TokenizeCount() - lex0; got != wantLex {
							t.Errorf("tokenizes = %d, want %d", got, wantLex)
						}
						if got := ParseCount() - parse0; got != 0 {
							t.Errorf("parses = %d, want 0", got)
						}
					})
				}
			}
		}
	}
}

// TestAssertionViewQueryThroughFilter: a View query inside an integrity
// assertion runs through the SQL channel's filter and plan cache like
// any other query — the second commit's assertion hits the cache, and a
// tainted statement structure is refused by the strategy-2 assertion.
func TestAssertionViewQueryThroughFilter(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE acct (id INT, bal INT)")
	db.MustExec("INSERT INTO acct (id, bal) VALUES (1, 10)")
	var query core.String
	db.AddIntegrityAssertion("read-balances", func(v *View) error {
		_, err := v.Query(query)
		return err
	})
	query = core.NewString("SELECT bal FROM acct WHERE id = 1")
	commit := func() error {
		tx := db.Begin()
		tx.MustExec("UPDATE acct SET bal = 20 WHERE id = 1")
		return tx.Commit()
	}
	if err := commit(); err != nil {
		t.Fatal(err)
	}
	parse0 := ParseCount()
	if err := commit(); err != nil {
		t.Fatal(err)
	}
	if got := ParseCount() - parse0; got != 0 {
		t.Errorf("second commit parsed %d times; the assertion's query missed the plan cache", got)
	}

	db.Filter().RejectTaintedStructure(true)
	query = core.Concat(core.NewString("SELECT bal FROM acct WHERE id = 1 "),
		sanitize.Taint(core.NewString("OR 1 = 1"), "form:id"))
	err := commit()
	var inj *InjectionError
	if !errors.As(err, &inj) {
		t.Fatalf("tainted assertion query: got %v, want an *InjectionError", err)
	}
	if inj.Strategy != "tainted-structure" {
		t.Errorf("strategy = %q, want tainted-structure", inj.Strategy)
	}
}

// TestTextQueryBindsNamed: a text query is a one-shot prepared
// statement, so `:name` placeholders bind Named arguments on DB.Query
// and Tx.Query as they do on Stmt.Query.
func TestTextQueryBindsNamed(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE kv (k TEXT, v INT)")
	key := sanitize.Taint(core.NewString("one"), "form:k")
	if _, err := db.Query(core.NewString("INSERT INTO kv (k, v) VALUES (:k, :v)"), Named("v", 1), Named("k", key)); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if _, err := tx.Query(core.NewString("INSERT INTO kv (k, v) VALUES (:k, :v)"), Named("k", "two"), Named("v", 2)); err != nil {
		t.Fatal(err)
	}
	res, err := tx.Query(core.NewString("SELECT k FROM kv WHERE v = :v OR k = :k OR v = :v ORDER BY v"), Named("k", "two"), Named("v", 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 || res.Get(0, "k").Str.Raw() != "one" || res.Get(1, "k").Str.Raw() != "two" {
		t.Fatalf("Tx.Query named read: %d rows", res.Len())
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	res, err = db.Query(core.NewString("SELECT k FROM kv WHERE v = :v"), Named("v", 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || !res.Get(0, "k").Str.IsTainted() {
		t.Fatalf("DB.Query named read lost the row or its policy: %d rows", res.Len())
	}
}

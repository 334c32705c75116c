package sqldb

import (
	"fmt"
	"testing"

	"resin/internal/core"
	"resin/internal/sanitize"
)

// FuzzPredicateAnalyzer feeds arbitrary WHERE/ORDER BY text to the same
// SELECT over a small indexed table and its forced-scan twin. The
// invariants: never panic, fail identically (same error text) or
// succeed identically (same rows, order, and decoded policy sets —
// requireSameResults from the differential harness). Runs in the CI
// fuzz smoke alongside FuzzWALReplay.
func FuzzPredicateAnalyzer(f *testing.F) {
	rt := core.NewRuntime()
	indexed, scan := Open(rt), Open(rt)
	indexed.MustExec("CREATE TABLE t (id INT, name TEXT, val INT)")
	scan.MustExec("CREATE TABLE t (id INT, name TEXT, val INT)")
	// Seed both tables identically — NULLs included, names tainted so
	// the diff covers policy decode through both access paths.
	for i := 0; i < 30; i++ {
		idLit := fmt.Sprintf("%d", i%13)
		if i%9 == 0 {
			idLit = "NULL"
		}
		q := core.Concat(
			core.NewString(fmt.Sprintf("INSERT INTO t (id, name, val) VALUES (%s, '", idLit)),
			core.NewStringPolicy(fmt.Sprintf("w%d", i%7), &sanitize.UntrustedData{Source: "fuzz"}),
			core.NewString(fmt.Sprintf("', %d)", i%5)),
		)
		if _, err := indexed.Query(q); err != nil {
			f.Fatal(err)
		}
		if _, err := scan.Query(q); err != nil {
			f.Fatal(err)
		}
	}
	indexed.MustExec("CREATE INDEX ON t (id)")
	indexed.MustExec("CREATE INDEX ON t (name)")
	indexed.MustExec("CREATE INDEX ON t (val)")

	for _, seed := range []string{
		"WHERE id = 3",
		"WHERE id > 1 AND id < 9 ORDER BY id DESC",
		"WHERE id >= 1 AND 9 >= id ORDER BY id",
		"WHERE name LIKE 'w%' ORDER BY name",
		"WHERE name LIKE '%' ORDER BY name DESC LIMIT 3",
		"WHERE name LIKE 'w_%'",
		"WHERE id < '5'",
		"WHERE id > NULL ORDER BY val",
		"WHERE NOT (id < 5) AND name = 'w1'",
		"WHERE id = 2 OR id = 4 ORDER BY id",
		"ORDER BY name",
		// An equality on one indexed column ordered by another under a
		// LIMIT: the ORDER BY walk (val's 6-row buckets win the cost rule
		// at LIMIT 1 and 0), or the probe plus a bounded top-k.
		"WHERE val = 2 ORDER BY id DESC LIMIT 1",
		"WHERE val = 2 ORDER BY id LIMIT 1",
		"WHERE val = 3 ORDER BY name DESC LIMIT 1",
		"WHERE val = 1 ORDER BY id DESC LIMIT 0",
		"WHERE val = 4 AND id > 3 ORDER BY id DESC LIMIT 2",
		"WHERE name = 'w3' ORDER BY id LIMIT 1",
		"WHERE id = 5 ORDER BY val DESC LIMIT 1",
		"ORDER BY id DESC LIMIT 4",
		"ORDER BY missing",
		"WHERE",
		"WHERE id = 1; DROP TABLE t",
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, tail string) {
		q := "SELECT id, name, val FROM t " + tail
		a, aerr := indexed.QueryRaw(q)
		b, berr := scan.QueryRaw(q)
		if (aerr == nil) != (berr == nil) {
			t.Fatalf("%q: indexed err=%v, scan err=%v", q, aerr, berr)
		}
		if aerr != nil {
			if aerr.Error() != berr.Error() {
				t.Fatalf("%q: error text differs:\n  indexed %v\n  scan    %v", q, aerr, berr)
			}
			return
		}
		requireSameResults(t, q, a, b)
	})
}

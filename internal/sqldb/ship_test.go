package sqldb

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"resin/internal/core"
)

// shipPair opens a WAL-backed primary and an empty follower for direct
// shipping tests (no network in between).
func shipPair(t *testing.T) (primary *DB, follower *Follower, fpath string) {
	t.Helper()
	rt := core.NewRuntime()
	primary, err := OpenDB(rt, filepath.Join(t.TempDir(), "p.wal"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close() }) //nolint:errcheck
	fpath = filepath.Join(t.TempDir(), "f.wal")
	fdb, err := OpenDB(rt, fpath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fdb.Close() }) //nolint:errcheck
	follower, err = NewFollower(fdb)
	if err != nil {
		t.Fatal(err)
	}
	return primary, follower, fpath
}

// shipAll copies the primary's log bytes from the follower's received
// offset forward, in chunks of n bytes, exercising partial-frame
// buffering when n is small.
func shipAll(t *testing.T, p *DB, f *Follower, n int) {
	t.Helper()
	for {
		_, size, err := p.WALStatus()
		if err != nil {
			t.Fatal(err)
		}
		_, received := f.Offsets()
		if received >= size {
			return
		}
		data, _, err := p.ReadWAL(received, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			return
		}
		if err := f.Apply(received, data); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFollowerAppliesShippedLog(t *testing.T) {
	p, f, _ := shipPair(t)
	p.MustExec("CREATE TABLE t (a INT, b TEXT)")
	for i := 0; i < 5; i++ {
		p.MustExec(fmt.Sprintf("INSERT INTO t (a, b) VALUES (%d, 'v%d')", i, i))
	}
	shipAll(t, p, f, 1<<20)

	if got, want := f.Frontier(), p.Frontier(); got != want {
		t.Fatalf("frontier %d, want %d", got, want)
	}
	res, err := f.DB().QueryRaw("SELECT a, b FROM t ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 5 {
		t.Fatalf("rows: %d", res.Len())
	}
	applied, received := f.Offsets()
	_, size, _ := p.WALStatus()
	if applied != size || received != size {
		t.Fatalf("offsets applied=%d received=%d, primary size=%d", applied, received, size)
	}
}

// TestFollowerPartialFrames ships the log one byte at a time: every
// record arrives split across many Apply calls, and record and group
// boundaries never align with chunk boundaries.
func TestFollowerPartialFrames(t *testing.T) {
	p, f, _ := shipPair(t)
	p.MustExec("CREATE TABLE t (a INT)")
	tx := p.Begin()
	tx.MustExec("INSERT INTO t (a) VALUES (1)")
	tx.MustExec("INSERT INTO t (a) VALUES (2)")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	shipAll(t, p, f, 1)

	if got, want := f.Frontier(), p.Frontier(); got != want {
		t.Fatalf("frontier %d, want %d", got, want)
	}
	res, err := f.DB().QueryRaw("SELECT a FROM t ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("rows: %d", res.Len())
	}
}

// TestFollowerUncommittedTailInvisible: a transaction group shipped
// without its commit marker is mirrored to the local log but not
// applied — the follower's frontier and visible rows exclude it.
func TestFollowerUncommittedTailInvisible(t *testing.T) {
	p, f, _ := shipPair(t)
	p.MustExec("CREATE TABLE t (a INT)")
	p.MustExec("INSERT INTO t (a) VALUES (1)")
	shipAll(t, p, f, 1<<20)
	want := f.Frontier()

	tx := p.Begin()
	tx.MustExec("INSERT INTO t (a) VALUES (2)")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Ship all but the last byte: the commit group cannot complete.
	_, size, err := p.WALStatus()
	if err != nil {
		t.Fatal(err)
	}
	_, received := f.Offsets()
	data, _, err := p.ReadWAL(received, int(size-received)-1)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Apply(received, data); err != nil {
		t.Fatal(err)
	}
	applied, rec := f.Offsets()
	if rec <= applied {
		t.Fatalf("expected mirrored-but-unapplied tail, applied=%d received=%d", applied, rec)
	}
	if f.Frontier() != want {
		t.Fatalf("frontier moved on uncommitted tail: %d != %d", f.Frontier(), want)
	}
	res, _ := f.DB().QueryRaw("SELECT a FROM t")
	if res.Len() != 1 {
		t.Fatalf("uncommitted row visible: %d rows", res.Len())
	}

	// The final byte completes the group.
	shipAll(t, p, f, 1<<20)
	if f.Frontier() != p.Frontier() {
		t.Fatalf("frontier %d, want %d", f.Frontier(), p.Frontier())
	}
}

// TestFollowerGapIsBehind: applying past the received offset is the
// resumable typed error, and does not disturb follower state.
func TestFollowerGapIsBehind(t *testing.T) {
	p, f, _ := shipPair(t)
	p.MustExec("CREATE TABLE t (a INT)")
	_, received := f.Offsets()
	if err := f.Apply(received+100, []byte{0x01}); !errors.Is(err, ErrShipBehind) {
		t.Fatalf("gap apply: %v", err)
	}
	shipAll(t, p, f, 1<<20)
	if f.Frontier() != p.Frontier() {
		t.Fatal("follower unusable after rejected gap")
	}
}

// TestFollowerOverlapDeduped: re-shipping bytes the follower already
// has (a reconnect race) is harmless — the overlap is discarded.
func TestFollowerOverlapDeduped(t *testing.T) {
	p, f, _ := shipPair(t)
	p.MustExec("CREATE TABLE t (a INT)")
	p.MustExec("INSERT INTO t (a) VALUES (1)")
	shipAll(t, p, f, 1<<20)

	p.MustExec("INSERT INTO t (a) VALUES (2)")
	_, size, _ := p.WALStatus()
	// Re-ship from offset 0: everything before `received` is overlap.
	data, _, err := p.ReadWAL(0, int(size))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Apply(0, data); err != nil {
		t.Fatal(err)
	}
	if f.Frontier() != p.Frontier() {
		t.Fatalf("frontier %d, want %d", f.Frontier(), p.Frontier())
	}
	res, _ := f.DB().QueryRaw("SELECT a FROM t ORDER BY a")
	if res.Len() != 2 {
		t.Fatalf("rows after overlap: %d", res.Len())
	}
}

// TestFollowerCrashResume: close the follower DB mid-stream (with a
// mirrored-but-uncommitted tail on disk), reopen it, and resume
// shipping from the recovered offset. Recovery truncates the torn tail,
// so the resume point is exactly the applied prefix.
func TestFollowerCrashResume(t *testing.T) {
	rt := core.NewRuntime()
	p, err := OpenDB(rt, filepath.Join(t.TempDir(), "p.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close() //nolint:errcheck
	fpath := filepath.Join(t.TempDir(), "f.wal")
	fdb, err := OpenDB(rt, fpath)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFollower(fdb)
	if err != nil {
		t.Fatal(err)
	}

	p.MustExec("CREATE TABLE t (a INT)")
	for i := 0; i < 10; i++ {
		p.MustExec(fmt.Sprintf("INSERT INTO t (a) VALUES (%d)", i))
	}
	// Ship everything except the last 3 bytes, leaving a torn record.
	_, size, _ := p.WALStatus()
	data, _, err := p.ReadWAL(0, int(size)-3)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Apply(0, data); err != nil {
		t.Fatal(err)
	}
	appliedBefore, receivedBefore := f.Offsets()
	if receivedBefore <= appliedBefore {
		t.Fatal("test wants a torn tail on disk")
	}
	if err := fdb.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": reopen the same log. Recovery truncates the torn tail.
	fdb2, err := OpenDB(rt, fpath)
	if err != nil {
		t.Fatal(err)
	}
	defer fdb2.Close() //nolint:errcheck
	f2, err := NewFollower(fdb2)
	if err != nil {
		t.Fatal(err)
	}
	applied2, received2 := f2.Offsets()
	if applied2 != appliedBefore || received2 != appliedBefore {
		t.Fatalf("resume offsets applied=%d received=%d, want both %d", applied2, received2, appliedBefore)
	}

	// Resume from the recovered offset and catch up fully.
	shipAll(t, p, f2, 1<<20)
	if f2.Frontier() != p.Frontier() {
		t.Fatalf("frontier %d, want %d", f2.Frontier(), p.Frontier())
	}
	res, err := fdb2.QueryRaw("SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 10 {
		t.Fatalf("rows after resume: %d", res.Len())
	}
}

// TestReadWALBehindTyped: reading past the end of the log is the typed
// resumable error.
func TestReadWALBehindTyped(t *testing.T) {
	p, _, _ := shipPair(t)
	p.MustExec("CREATE TABLE t (a INT)")
	_, size, _ := p.WALStatus()
	if _, _, err := p.ReadWAL(size+1, 10); !errors.Is(err, ErrShipBehind) {
		t.Fatalf("read past end: %v", err)
	}
	// Reading exactly at the end is an empty (heartbeat) read, not an error.
	data, _, err := p.ReadWAL(size, 10)
	if err != nil || len(data) != 0 {
		t.Fatalf("read at end: %v, %d bytes", err, len(data))
	}
}

// TestWALEpochBumpsOnCompaction: compaction rewrites the log, so every
// shipped offset is invalidated; the epoch counter is how ship streams
// notice.
func TestWALEpochBumpsOnCompaction(t *testing.T) {
	p, _, _ := shipPair(t)
	p.MustExec("CREATE TABLE t (a INT)")
	p.MustExec("INSERT INTO t (a) VALUES (1)")
	p.MustExec("DELETE FROM t")
	epoch0, _, err := p.WALStatus()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Compact(); err != nil {
		t.Fatal(err)
	}
	epoch1, _, err := p.WALStatus()
	if err != nil {
		t.Fatal(err)
	}
	if epoch1 <= epoch0 {
		t.Fatalf("epoch %d -> %d; compaction must bump it", epoch0, epoch1)
	}
}

// TestReplayGroupFrontierEquality: a database recovered from a log has
// the same frontier as the live database that wrote it — group replay
// bumps the version once per transaction, exactly like live commit.
func TestReplayGroupFrontierEquality(t *testing.T) {
	rt := core.NewRuntime()
	path := filepath.Join(t.TempDir(), "w.wal")
	db, err := OpenDB(rt, path)
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE TABLE t (a INT)")
	db.MustExec("INSERT INTO t (a) VALUES (1)") // single-statement group
	tx := db.Begin()
	tx.MustExec("INSERT INTO t (a) VALUES (2)")
	tx.MustExec("INSERT INTO t (a) VALUES (3)") // multi-statement group: ONE bump
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	live := db.Frontier()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenDB(rt, path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close() //nolint:errcheck
	if got := db2.Frontier(); got != live {
		t.Fatalf("recovered frontier %d != live %d", got, live)
	}
}

// TestNamedPlaceholders covers :name binding end to end: distinct names
// get distinct ordinals, repeats share one, args bind by name in any
// order, and misuse (mixing styles, unknown/duplicate/missing names) is
// rejected.
func TestNamedPlaceholders(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE u (name TEXT, age INT)")
	ins := db.MustPrepare("INSERT INTO u (name, age) VALUES (:name, :age)")
	if _, err := ins.Query(Named("age", 30), Named("name", "ada")); err != nil {
		t.Fatal(err)
	}
	if _, err := ins.Query(Named("name", "bob"), Named("age", 40)); err != nil {
		t.Fatal(err)
	}

	// A repeated name is one ordinal bound once.
	sel := db.MustPrepare("SELECT name FROM u WHERE age = :a OR age = :a")
	if sel.NumArgs() != 1 {
		t.Fatalf("repeated name ordinals: %d, want 1", sel.NumArgs())
	}
	res, err := sel.Query(Named("a", 30))
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("repeated-name rows: %d", res.Len())
	}

	if _, err := db.Prepare(core.NewString("SELECT name FROM u WHERE age = :a AND name = ?")); err == nil {
		t.Fatal("mixed ? and :name accepted")
	}
	if _, err := ins.Query(Named("name", "x"), Named("bogus", 1)); err == nil {
		t.Fatal("unknown name accepted")
	}
	if _, err := ins.Query(Named("name", "x"), Named("name", "y")); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := ins.Query(Named("name", "x")); err == nil {
		t.Fatal("missing name accepted")
	}
	if _, err := ins.Query(Named("name", "x"), 30); err == nil {
		t.Fatal("mixed named and positional args accepted")
	}
	if _, err := db.QueryRaw("SELECT name FROM u WHERE age = ?", Named("a", 30)); err == nil {
		t.Fatal("named arg outside prepared execution accepted")
	}
}

// TestFollowerVacuums ships many times vacuumEvery insert+delete pairs
// over a rolling window of live rows. The follower must reclaim on the
// primary's cadence: its entries, id map and index pairs stay bounded by
// the live rows plus one cadence of unreclaimed churn. A transaction
// begun on the follower before the churn pins its snapshot, so it must
// still read the rows it saw while vacuum runs underneath it.
func TestFollowerVacuums(t *testing.T) {
	const live = 10
	p, f, _ := shipPair(t)
	p.MustExec("CREATE TABLE t (id INT, body TEXT)")
	p.MustExec("CREATE INDEX ON t (id)")
	for i := 0; i < live; i++ {
		p.MustExec(fmt.Sprintf("INSERT INTO t (id, body) VALUES (%d, 'b%d')", i, i))
	}
	shipAll(t, p, f, 1<<20)

	next := live
	churn := func(pairs int) {
		t.Helper()
		for pairs > 0 {
			tx := p.Begin()
			for j := 0; j < 32 && pairs > 0; j, pairs = j+1, pairs-1 {
				tx.MustExec(fmt.Sprintf("INSERT INTO t (id, body) VALUES (%d, 'b%d')", next, next))
				tx.MustExec(fmt.Sprintf("DELETE FROM t WHERE id = %d", next-live))
				next++
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			shipAll(t, p, f, 1<<20)
		}
	}
	readAll := func(q interface {
		QueryRaw(string, ...any) (*Result, error)
	}) string {
		t.Helper()
		res, err := q.QueryRaw("SELECT id, body FROM t ORDER BY id")
		if err != nil {
			t.Fatal(err)
		}
		var b []byte
		for i := 0; i < res.Len(); i++ {
			b = fmt.Appendf(b, "%s=%s;", res.Get(i, "id").Text().Raw(), res.Get(i, "body").Text().Raw())
		}
		return string(b)
	}

	pinned := f.DB().Begin()
	before := readAll(pinned)
	churn(2 * vacuumEvery)
	if got := readAll(pinned); got != before {
		t.Fatalf("follower snapshot lost its versions to vacuum:\nbefore %s\nafter  %s", before, got)
	}
	if err := pinned.Rollback(); err != nil {
		t.Fatal(err)
	}

	churn(3 * vacuumEvery)
	if got, want := readAll(f.DB()), readAll(p); got != want {
		t.Fatalf("follower rows differ from primary:\nfollower %s\nprimary  %s", got, want)
	}
	e := f.DB().Engine()
	e.mu.RLock()
	defer e.mu.RUnlock()
	tbl := e.tables["t"]
	bound := live + vacuumEvery
	if len(tbl.entries) > bound || len(tbl.byID) > bound {
		t.Fatalf("follower never vacuums: %d entries, %d ids for %d live rows (bound %d)",
			len(tbl.entries), len(tbl.byID), live, bound)
	}
	for ci, ix := range tbl.indexes {
		pairs := 0
		for _, bucket := range ix.m {
			pairs += len(bucket)
		}
		if pairs > bound || len(ix.keys) > bound {
			t.Fatalf("col %d: index holds %d pairs, %d keys for %d live rows (bound %d)",
				ci, pairs, len(ix.keys), live, bound)
		}
	}
}

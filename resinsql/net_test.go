package resinsql_test

import (
	"context"
	"database/sql"
	"net"
	"strings"
	"testing"
	"time"

	"resin/internal/core"
	"resin/internal/sanitize"
	"resin/internal/sqldb"
	"resin/internal/wire"
	"resin/resinsql"
)

// openNet serves a fresh tracked database over TCP and opens it through
// database/sql with a net: DSN.
func openNet(t *testing.T) (*sql.DB, *sqldb.DB) {
	t.Helper()
	rdb := sqldb.Open(core.NewRuntime())
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer(rdb, wire.Config{})
	go srv.Serve(lis) //nolint:errcheck
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck
	})
	db, err := sql.Open(resinsql.DriverName, resinsql.NetPrefix+lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() }) //nolint:errcheck
	return db, rdb
}

// TestNetDSNRoundTripPreservesPolicies: the driver acceptance criterion
// over TCP — a tracked bound argument crosses the socket, persists, and
// returns with its policy set intact.
func TestNetDSNRoundTripPreservesPolicies(t *testing.T) {
	db, rdb := openNet(t)
	if _, err := db.Exec("CREATE TABLE users (name TEXT, bio TEXT)"); err != nil {
		t.Fatal(err)
	}
	tainted := sanitize.Taint(core.NewString("mallory"), "form:name")
	if _, err := db.Exec("INSERT INTO users (name, bio) VALUES (?, ?)", tainted, "over tcp"); err != nil {
		t.Fatal(err)
	}

	var got resinsql.String
	var bio string
	if err := db.QueryRow("SELECT name, bio FROM users").Scan(&got, &bio); err != nil {
		t.Fatal(err)
	}
	if !got.Valid || got.V.Raw() != "mallory" || bio != "over tcp" {
		t.Fatalf("scanned %q (valid=%v), bio %q", got.V.Raw(), got.Valid, bio)
	}
	if !got.V.IsTainted() {
		t.Fatal("taint lost across the net: DSN")
	}

	// The scanned policy set equals the in-process one, byte for byte.
	inProc, err := rdb.QueryRaw("SELECT name FROM users")
	if err != nil {
		t.Fatal(err)
	}
	wantAnn, err := core.EncodeSpans(inProc.Get(0, "name").Str)
	if err != nil {
		t.Fatal(err)
	}
	gotAnn, err := core.EncodeSpans(got.V)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotAnn) != string(wantAnn) {
		t.Fatalf("annotation mismatch:\n  got  %s\n  want %s", gotAnn, wantAnn)
	}
}

// TestNetDSNPreparedNamedAndContext exercises the context driver
// interfaces end to end: PrepareContext, named arguments, StmtQuery-
// Context, and transactions via BeginTx.
func TestNetDSNPreparedNamedAndContext(t *testing.T) {
	db, _ := openNet(t)
	ctx := context.Background()
	if _, err := db.ExecContext(ctx, "CREATE TABLE kv (k TEXT, v INT)"); err != nil {
		t.Fatal(err)
	}
	ins, err := db.PrepareContext(ctx, "INSERT INTO kv (k, v) VALUES (:key, :val)")
	if err != nil {
		t.Fatal(err)
	}
	defer ins.Close() //nolint:errcheck
	if _, err := ins.ExecContext(ctx, sql.Named("val", 7), sql.Named("key", "seven")); err != nil {
		t.Fatal(err)
	}

	tx, err := db.BeginTx(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.ExecContext(ctx, "INSERT INTO kv (k, v) VALUES (?, ?)", "eight", 8); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	var v int
	err = db.QueryRowContext(ctx, "SELECT v FROM kv WHERE k = :k", sql.Named("k", "seven")).Scan(&v)
	if err != nil || v != 7 {
		t.Fatalf("named query: v=%d err=%v", v, err)
	}
	err = db.QueryRowContext(ctx, "SELECT v FROM kv WHERE k = ?", "eight").Scan(&v)
	if err != nil || v != 8 {
		t.Fatalf("tx insert: v=%d err=%v", v, err)
	}

	// Weaker isolation must be refused, not silently upgraded.
	if _, err := db.BeginTx(ctx, &sql.TxOptions{Isolation: sql.LevelReadCommitted}); err == nil {
		t.Fatal("read-committed BeginTx accepted")
	}
}

// checkIsolationLevels pins the isolation levels BeginTx admits: the
// engine runs snapshot isolation, so the default level and
// sql.LevelSnapshot begin a transaction, and serializable — which
// snapshot isolation does not provide, write skew being allowed — is
// refused with an error naming the level the engine does run.
func checkIsolationLevels(t *testing.T, db *sql.DB) {
	t.Helper()
	ctx := context.Background()
	for _, lvl := range []sql.IsolationLevel{sql.LevelDefault, sql.LevelSnapshot} {
		tx, err := db.BeginTx(ctx, &sql.TxOptions{Isolation: lvl})
		if err != nil {
			t.Fatalf("BeginTx(%s): %v", lvl, err)
		}
		if err := tx.Rollback(); err != nil {
			t.Fatal(err)
		}
	}
	for _, lvl := range []sql.IsolationLevel{sql.LevelSerializable, sql.LevelReadCommitted, sql.LevelLinearizable} {
		_, err := db.BeginTx(ctx, &sql.TxOptions{Isolation: lvl})
		if err == nil {
			t.Fatalf("BeginTx(%s) accepted", lvl)
		}
		if !strings.Contains(err.Error(), "snapshot isolation") {
			t.Errorf("BeginTx(%s) error %q does not name snapshot isolation", lvl, err)
		}
	}
}

func TestNetDSNIsolationLevels(t *testing.T) {
	db, _ := openNet(t)
	checkIsolationLevels(t, db)
}

func TestLocalIsolationLevels(t *testing.T) {
	db, _ := open(t, "isolation")
	checkIsolationLevels(t, db)
}

// TestNetDSNContextCanceled: a canceled context fails the call before
// (or while) it touches the socket.
func TestNetDSNContextCanceled(t *testing.T) {
	db, _ := openNet(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.ExecContext(ctx, "CREATE TABLE t (a INT)"); err == nil {
		t.Fatal("exec with canceled ctx succeeded")
	}
}

// TestLocalContextInterfaces: the in-process connection also honors the
// context driver interfaces (satellite parity with the net path).
func TestLocalContextInterfaces(t *testing.T) {
	db, _ := open(t, "ctxlocal")
	ctx := context.Background()
	if _, err := db.ExecContext(ctx, "CREATE TABLE kv (k TEXT, v INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecContext(ctx, "INSERT INTO kv (k, v) VALUES (:k, :v)",
		sql.Named("k", "a"), sql.Named("v", 1)); err != nil {
		t.Fatal(err)
	}
	var v int
	if err := db.QueryRowContext(ctx, "SELECT v FROM kv WHERE k = :k", sql.Named("k", "a")).Scan(&v); err != nil || v != 1 {
		t.Fatalf("v=%d err=%v", v, err)
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := db.ExecContext(canceled, "INSERT INTO kv (k, v) VALUES ('b', 2)"); err == nil {
		t.Fatal("exec with canceled ctx succeeded")
	}
	if _, err := db.BeginTx(ctx, &sql.TxOptions{ReadOnly: true}); err == nil {
		t.Fatal("read-only BeginTx accepted")
	}
}

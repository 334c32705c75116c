package resinsql

import (
	"context"
	"database/sql/driver"
	"errors"
	"fmt"

	"resin/internal/core"
	"resin/internal/wire"
)

// NetPrefix marks a data source name as a wire-server address rather
// than a registry key or file path: "net:host:port" connects over TCP
// to a resin-server (or a follower), speaking the framed protocol in
// internal/wire. Policy annotations cross the socket in the canonical
// EncodeSpans form and are re-interned on arrival, so tracked scanning
// (the String / Int wrappers) works identically to the in-process DSNs.
const NetPrefix = "net:"

// openNetConn dials a wire server for a "net:host:port" DSN.
func openNetConn(name string) (driver.Conn, error) {
	addr := name[len(NetPrefix):]
	if addr == "" {
		return nil, fmt.Errorf("resinsql: %q DSN wants %q", name, NetPrefix+"host:port")
	}
	wc, err := wire.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &netConn{wc: wc}, nil
}

// netConn is one database/sql connection backed by one wire connection.
// database/sql's pool maps 1:1 onto server sessions: SetMaxOpenConns
// bounds the TCP connections, and a poisoned wire connection surfaces
// as driver.ErrBadConn so the pool discards and redials.
type netConn struct {
	wc   *wire.Conn
	inTx bool
}

// badConn maps a poisoned-transport error onto driver.ErrBadConn;
// server-side errors (*wire.RemoteError) pass through — the connection
// stays usable after those.
func badConn(err error) error {
	if errors.Is(err, wire.ErrConnClosed) {
		return driver.ErrBadConn
	}
	return err
}

func (c *netConn) Close() error { return c.wc.Close() }

// IsValid implements driver.Validator: a poisoned connection never
// returns to the pool.
func (c *netConn) IsValid() bool { return !c.wc.Closed() }

// CheckNamedValue admits tracked values unconverted, like the
// in-process connection.
func (c *netConn) CheckNamedValue(nv *driver.NamedValue) error { return checkNamedValue(nv) }

// QueryContext implements driver.QueryerContext; the ctx deadline
// becomes the socket deadline and cancellation interrupts a blocked
// round trip.
func (c *netConn) QueryContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Rows, error) {
	res, err := c.wc.QueryContext(ctx, core.NewString(query), namedAnyArgs(args)...)
	if err != nil {
		return nil, badConn(err)
	}
	return &rows{res: res}, nil
}

// ExecContext implements driver.ExecerContext.
func (c *netConn) ExecContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Result, error) {
	affected, err := c.wc.ExecContext(ctx, core.NewString(query), namedAnyArgs(args)...)
	if err != nil {
		return nil, badConn(err)
	}
	return result{affected: int64(affected)}, nil
}

// Prepare implements driver.Conn.
func (c *netConn) Prepare(query string) (driver.Stmt, error) {
	return c.PrepareContext(context.Background(), query)
}

// PrepareContext implements driver.ConnPrepareContext: the statement is
// compiled and held server-side, scoped to this connection.
func (c *netConn) PrepareContext(ctx context.Context, query string) (driver.Stmt, error) {
	st, err := c.wc.PrepareContext(ctx, core.NewString(query))
	if err != nil {
		return nil, badConn(err)
	}
	return &netStmt{st: st}, nil
}

// Begin implements driver.Conn.
func (c *netConn) Begin() (driver.Tx, error) {
	return c.BeginTx(context.Background(), driver.TxOptions{})
}

// BeginTx implements driver.ConnBeginTx, under the same checkTxOptions
// as the in-process connection.
func (c *netConn) BeginTx(ctx context.Context, opts driver.TxOptions) (driver.Tx, error) {
	if err := checkTxOptions(opts); err != nil {
		return nil, err
	}
	if c.inTx {
		return nil, errors.New("resinsql: transaction already open on this connection")
	}
	if err := c.wc.BeginContext(ctx); err != nil {
		return nil, badConn(err)
	}
	c.inTx = true
	return &netTx{c: c}, nil
}

// netTx adapts the connection's server-side transaction to driver.Tx.
type netTx struct{ c *netConn }

func (t *netTx) Commit() error {
	t.c.inTx = false
	return badConn(t.c.wc.Commit())
}

func (t *netTx) Rollback() error {
	t.c.inTx = false
	return badConn(t.c.wc.Rollback())
}

// netStmt adapts a server-side prepared statement to driver.Stmt.
type netStmt struct{ st *wire.Stmt }

func (s *netStmt) Close() error { return badConn(s.st.Close()) }

func (s *netStmt) NumInput() int { return s.st.NumArgs() }

func (s *netStmt) CheckNamedValue(nv *driver.NamedValue) error { return checkNamedValue(nv) }

func (s *netStmt) Exec(args []driver.Value) (driver.Result, error) {
	return s.execContext(context.Background(), valuesToNamed(args))
}

func (s *netStmt) Query(args []driver.Value) (driver.Rows, error) {
	return s.queryContext(context.Background(), valuesToNamed(args))
}

// QueryContext implements driver.StmtQueryContext.
func (s *netStmt) QueryContext(ctx context.Context, args []driver.NamedValue) (driver.Rows, error) {
	return s.queryContext(ctx, args)
}

// ExecContext implements driver.StmtExecContext.
func (s *netStmt) ExecContext(ctx context.Context, args []driver.NamedValue) (driver.Result, error) {
	return s.execContext(ctx, args)
}

func (s *netStmt) queryContext(ctx context.Context, args []driver.NamedValue) (driver.Rows, error) {
	res, err := s.st.QueryContext(ctx, namedAnyArgs(args)...)
	if err != nil {
		return nil, badConn(err)
	}
	return &rows{res: res}, nil
}

func (s *netStmt) execContext(ctx context.Context, args []driver.NamedValue) (driver.Result, error) {
	affected, err := s.st.ExecContext(ctx, namedAnyArgs(args)...)
	if err != nil {
		return nil, badConn(err)
	}
	return result{affected: int64(affected)}, nil
}

// valuesToNamed lifts contextless driver values into named values.
func valuesToNamed(args []driver.Value) []driver.NamedValue {
	if len(args) == 0 {
		return nil
	}
	out := make([]driver.NamedValue, len(args))
	for i, a := range args {
		out[i] = driver.NamedValue{Ordinal: i + 1, Value: a}
	}
	return out
}

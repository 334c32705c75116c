package resinsql

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"errors"
	"fmt"

	"resin/internal/sqldb"
)

// Context-aware driver interfaces for the in-process connection.
//
// The RESIN engine executes queries synchronously in memory, so a
// context cannot interrupt one mid-flight; what these implementations
// guarantee is that a done context is observed before execution starts
// (database/sql otherwise falls back to the contextless methods and
// ignores ctx entirely), and that named arguments (sql.Named) reach the
// prepared-statement layer as sqldb named bindings. The net: DSN
// connection (net.go) additionally turns ctx deadlines into socket
// deadlines — see wire.Conn.

// namedAnyArgs converts driver named values to engine arguments:
// values with names become sqldb named bindings, the rest positional.
func namedAnyArgs(args []driver.NamedValue) []any {
	if len(args) == 0 {
		return nil
	}
	out := make([]any, len(args))
	for i, a := range args {
		if a.Name != "" {
			out[i] = sqldb.Named(a.Name, a.Value)
		} else {
			out[i] = a.Value
		}
	}
	return out
}

// QueryContext implements driver.QueryerContext: one-shot queries skip
// the driver.Stmt round trip. The text runs as a one-shot prepared
// statement, so named arguments bind as they do on a Stmt.
func (c *conn) QueryContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Rows, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := c.target().QueryRaw(query, namedAnyArgs(args)...)
	if err != nil {
		return nil, err
	}
	return &rows{res: res}, nil
}

// ExecContext implements driver.ExecerContext.
func (c *conn) ExecContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Result, error) {
	r, err := c.QueryContext(ctx, query, args)
	if err != nil {
		return nil, err
	}
	return result{affected: int64(r.(*rows).res.Affected)}, nil
}

// BeginTx implements driver.ConnBeginTx, under checkTxOptions.
func (c *conn) BeginTx(ctx context.Context, opts driver.TxOptions) (driver.Tx, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := checkTxOptions(opts); err != nil {
		return nil, err
	}
	return c.Begin()
}

// checkTxOptions admits the transactions the engine provides, for the
// in-process and the net: connection alike. The engine has one isolation
// level, snapshot isolation: write skew is allowed (docs/SQL.md §9), so
// a request for serializable — like any level other than the default
// and sql.LevelSnapshot — is refused rather than silently weakened.
// Read-only transactions are not modeled (use plain queries, which read
// a consistent MVCC snapshot anyway).
func checkTxOptions(opts driver.TxOptions) error {
	if lvl := sql.IsolationLevel(opts.Isolation); lvl != sql.LevelDefault && lvl != sql.LevelSnapshot {
		return fmt.Errorf("resinsql: isolation level %s not supported (transactions run under snapshot isolation)", lvl)
	}
	if opts.ReadOnly {
		return errors.New("resinsql: read-only transactions are not supported")
	}
	return nil
}

// QueryContext implements driver.StmtQueryContext.
func (s *stmt) QueryContext(ctx context.Context, args []driver.NamedValue) (driver.Rows, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := s.st.Query(namedAnyArgs(args)...)
	if err != nil {
		return nil, err
	}
	return &rows{res: res}, nil
}

// ExecContext implements driver.StmtExecContext.
func (s *stmt) ExecContext(ctx context.Context, args []driver.NamedValue) (driver.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	affected, err := s.st.Exec(namedAnyArgs(args)...)
	if err != nil {
		return nil, err
	}
	return result{affected: int64(affected)}, nil
}

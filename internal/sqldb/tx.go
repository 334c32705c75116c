package sqldb

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"resin/internal/core"
)

// Transactions with integrity assertions — the §8 future-work item:
// "Instead of requiring programmers to specify what writes are allowed
// using filter objects, we envision using transactions to buffer database
// or file system changes, and checking a programmer-specified assertion
// before committing them."
//
// A Tx executes against a speculative engine. Begin is O(1): it
// registers the base engine's commit frontier as a snapshot and
// shallow-copies the catalog — reads of untouched tables go straight to
// the base's version chains at that snapshot, and a table is deep-copied
// (materialized) only when the transaction first writes it. Reads inside
// the transaction see its own writes; nothing touches the real database
// until Commit, which first runs every registered integrity assertion
// against the speculative state, then merges the transaction's row ops
// into the base engine under first-committer-wins per-row conflict
// detection: if any row (by stable id) the transaction updated or
// deleted was committed past its snapshot by someone else, Commit fails
// with ErrTxConflict and the database is untouched. Reads are not
// validated, so write skew is possible (docs/SQL.md §9) — the paper's
// buffering proposal, not full serializability.

// IntegrityAssertion inspects a speculative database state; returning an
// error vetoes the commit.
type IntegrityAssertion func(view *View) error

// View is the read-only query interface integrity assertions get. Its
// queries run on the transaction's speculative state through the same
// channel, filters and plan cache as every other query; it never takes
// the database's locks, which Commit holds while assertions run.
type View struct {
	on surface
}

// Query runs a SELECT (or any statement — assertions should read only)
// against the speculative state, with policies attached as usual. args
// bind placeholders as in DB.Query.
func (v *View) Query(q core.String, args ...any) (*Result, error) { return v.on.Query(q, args...) }

// QueryRaw is Query for untracked text.
func (v *View) QueryRaw(q string, args ...any) (*Result, error) { return v.on.QueryRaw(q, args...) }

// MustExec runs a query against the speculative state and panics on
// error — parity with DB.MustExec for assertion and test setup code.
func (v *View) MustExec(q string) *Result { return v.on.MustExec(q) }

// Clone deep-copies the engine's current state: the rows visible at the
// commit frontier, with their stable ids, into fresh single-version
// chains, plus rebuilt ordered indexes. The clone keeps the source's
// schema generation: the schemas are identical, so cached plans compiled
// against the source stay valid for the clone until either side runs
// DDL (which stamps a fresh process-unique generation). Transactions no
// longer use it (Begin is a snapshot reference); it remains the
// explicit fork-the-database utility.
func (e *Engine) Clone() *Engine {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := NewEngine()
	frontier := e.frontier.Load()
	for key, t := range e.tables {
		nt := newTable(t.name, append([]ColumnDef(nil), t.cols...))
		for _, en := range t.entries {
			v := en.visible(frontier)
			if v == nil {
				continue
			}
			ne := &rowEntry{id: en.id}
			ne.head.Store(&rowVersion{vals: append([]value(nil), v.vals...)})
			nt.entries = append(nt.entries, ne)
			nt.byID[en.id] = ne
		}
		if len(t.indexes) > 0 {
			nt.indexes = make(map[int]*orderedIndex, len(t.indexes))
			for ci := range t.indexes {
				ix, _ := buildIndex(nt.entries, ci)
				nt.indexes[ci] = ix
			}
		}
		out.tables[key] = nt
	}
	out.nextID = e.nextID
	out.gen.Store(e.gen.Load())
	return out
}

// Transaction errors.
var (
	ErrTxDone = errors.New("sqldb: transaction already committed or rolled back")

	// ErrTxConflict reports a commit lost to the first-committer-wins
	// rule: another commit (or direct write) landed past this
	// transaction's snapshot on a row id — or a piece of schema — this
	// transaction wrote. The database is unchanged; retry the whole
	// transaction against fresh state.
	ErrTxConflict = errors.New("sqldb: transaction conflict")
)

// IntegrityError reports a vetoed commit.
type IntegrityError struct {
	Assertion string
	Err       error
}

func (e *IntegrityError) Error() string {
	return fmt.Sprintf("sqldb: integrity assertion %q vetoed commit: %v", e.Assertion, e.Err)
}

func (e *IntegrityError) Unwrap() error { return e.Err }

// Tx is one open transaction.
type Tx struct {
	surface // runs on spec, the speculative engine
	mu      sync.Mutex
	done    bool
}

// AddIntegrityAssertion registers a named assertion checked before every
// transaction commit.
func (db *DB) AddIntegrityAssertion(name string, fn IntegrityAssertion) {
	db.txMu.Lock()
	defer db.txMu.Unlock()
	db.integrity = append(db.integrity, namedAssertion{name, fn})
}

type namedAssertion struct {
	name string
	fn   IntegrityAssertion
}

// Begin opens a transaction. It registers the current commit frontier
// as the transaction's snapshot (pinning those versions against vacuum)
// and shallow-copies the catalog — no row data is copied until the
// transaction writes a table. The speculative engine records row-level
// redo, which Commit both logs as one begin..commit WAL group and
// merges into the base engine.
func (db *DB) Begin() *Tx {
	db.txMu.RLock()
	engine := db.engine
	db.txMu.RUnlock()
	engine.mu.RLock()
	snap := engine.acquireSnap()
	tables := make(map[string]*table, len(engine.tables))
	begin := make(map[string]*table, len(engine.tables))
	for k, t := range engine.tables {
		tables[k] = t
		begin[k] = t
	}
	gen := engine.gen.Load()
	engine.mu.RUnlock()

	spec := &Engine{
		tables:      tables,
		nextID:      provisionalIDBase,
		txBase:      engine,
		txSnap:      snap,
		owned:       make(map[string]bool),
		beginTables: begin,
	}
	spec.gen.Store(gen)
	tx := &Tx{}
	tx.surface = surface{db: db, tx: tx, spec: spec}
	return tx
}

// lock takes the transaction's lock for one operation — a statement
// execution, Commit or Rollback — and fails with ErrTxDone, not holding
// the lock, once the transaction has ended.
func (tx *Tx) lock() error {
	tx.mu.Lock()
	if tx.done {
		tx.mu.Unlock()
		return ErrTxDone
	}
	return nil
}

// finish ends the transaction exactly once: mark it done and release
// its pinned snapshot so vacuum can reclaim the versions it was reading.
func (tx *Tx) finish() {
	if tx.done {
		return
	}
	tx.done = true
	tx.spec.txBase.releaseSnap(tx.spec.txSnap)
}

// Commit checks every integrity assertion against the speculative state
// and, if all pass, merges the transaction's redo into the database
// under first-committer-wins conflict detection (ErrTxConflict on a
// lost race — nothing applied). Durability comes first: the redo is
// appended to the write-ahead log as one begin..commit group, and only
// then applied in memory as a single commit version.
func (tx *Tx) Commit() error {
	if err := tx.lock(); err != nil {
		return err
	}
	defer tx.mu.Unlock()
	tx.db.txMu.Lock()
	defer tx.db.txMu.Unlock()
	view := &View{on: surface{db: tx.db, spec: tx.spec}}
	for _, a := range tx.db.integrity {
		if err := a.fn(view); err != nil {
			tx.finish()
			return &IntegrityError{Assertion: a.name, Err: err}
		}
	}
	err := tx.spec.txBase.commitOps(tx.spec)
	tx.finish()
	return err
}

// commitOps merges a speculative engine's redo into the base engine b.
// It runs entirely under b's write lock: conflict pre-validation, the
// WAL commit group, and the in-memory apply — so the merge is atomic
// against every reader snapshot (a single frontier bump publishes all of
// it) and every other writer.
//
// Pre-validation is exhaustive before anything is written: first-touch
// catalog pointer checks, DDL sequencing against a simulated catalog,
// and per-row first-committer-wins checks (a row the transaction
// updated or deleted must not carry a version newer than the
// transaction's snapshot). Only when every step is known to apply
// cleanly is the WAL group appended and the redo applied — a torn
// commit is impossible, short of a crash the WAL group already covers.
func (b *Engine) commitOps(spec *Engine) error {
	if len(spec.redo) == 0 {
		// Nothing to merge: a read-only transaction commits without
		// touching the log (byte-identical WAL, no version burned).
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.wal != nil {
		if err := b.wal.usable(); err != nil {
			return fmt.Errorf("sqldb: commit: %w", err)
		}
	}

	// First-touch check: every pre-existing table this transaction wrote
	// must still be the same *table the catalog held at Begin. A drop or
	// drop+recreate by another committer replaces the pointer.
	for key := range spec.owned {
		bt := spec.beginTables[key]
		if bt == nil {
			continue // created by this transaction; CreateTable sim checks absence
		}
		if b.tables[key] != bt {
			return fmt.Errorf("%w: table %s changed shape since the transaction began", ErrTxConflict, key)
		}
	}

	// Simulated catalog walk: replay the redo's schema effects against
	// the base to prove every DDL statement still applies, and run the
	// per-row conflict rule for ops on pre-existing tables.
	type simTab struct {
		t       *table       // base table (nil when created by this tx)
		created bool         // created inside this transaction's redo
		idx     map[int]bool // index presence overlay, lazily seeded
	}
	sim := make(map[string]*simTab)
	lookup := func(key string) *simTab {
		if st, ok := sim[key]; ok {
			return st // may be nil: dropped in redo
		}
		t, ok := b.tables[key]
		if !ok {
			sim[key] = nil
			return nil
		}
		st := &simTab{t: t}
		sim[key] = st
		return st
	}
	seedIdx := func(st *simTab) {
		if st.idx != nil {
			return
		}
		st.idx = make(map[int]bool)
		if st.t != nil {
			for ci := range st.t.indexes {
				st.idx[ci] = true
			}
		}
	}
	for _, rec := range spec.redo {
		if rec.ddl != nil {
			switch s := rec.ddl.(type) {
			case *CreateTable:
				key := lowerKey(s.Table)
				if lookup(key) != nil {
					return fmt.Errorf("%w: table %s was created concurrently", ErrTxConflict, key)
				}
				sim[key] = &simTab{created: true}
			case *DropTable:
				key := lowerKey(s.Table)
				if lookup(key) == nil {
					return fmt.Errorf("%w: table %s was dropped concurrently", ErrTxConflict, key)
				}
				sim[key] = nil
			case *CreateIndex:
				key := lowerKey(s.Table)
				st := lookup(key)
				if st == nil {
					return fmt.Errorf("%w: table %s was dropped concurrently", ErrTxConflict, key)
				}
				if !st.created {
					ci := st.t.colIndex(s.Column)
					if ci < 0 {
						return fmt.Errorf("%w: column %s.%s vanished", ErrTxConflict, key, s.Column)
					}
					seedIdx(st)
					if st.idx[ci] {
						return fmt.Errorf("%w: index on %s.%s was created concurrently", ErrTxConflict, key, s.Column)
					}
					st.idx[ci] = true
				}
			case *DropIndex:
				key := lowerKey(s.Table)
				st := lookup(key)
				if st == nil {
					return fmt.Errorf("%w: table %s was dropped concurrently", ErrTxConflict, key)
				}
				if !st.created {
					ci := st.t.colIndex(s.Column)
					if ci < 0 {
						return fmt.Errorf("%w: column %s.%s vanished", ErrTxConflict, key, s.Column)
					}
					seedIdx(st)
					if !st.idx[ci] {
						return fmt.Errorf("%w: index on %s.%s was dropped concurrently", ErrTxConflict, key, s.Column)
					}
					delete(st.idx, ci)
				}
			}
			continue
		}
		if len(rec.ops) == 0 {
			continue
		}
		st := lookup(rec.ops[0].table)
		if st == nil {
			return fmt.Errorf("%w: table %s was dropped concurrently", ErrTxConflict, rec.ops[0].table)
		}
		if st.created {
			continue // private table: no one else can have touched its rows
		}
		for i := range rec.ops {
			op := &rec.ops[i]
			if op.id >= provisionalIDBase || op.kind == opInsert {
				continue // row born inside this transaction
			}
			en := st.t.byID[op.id]
			if en == nil {
				return fmt.Errorf("%w: row %d of %s no longer exists", ErrTxConflict, op.id, op.table)
			}
			if en.head.Load().born > spec.txSnap {
				return fmt.Errorf("%w: row %d of %s was written concurrently", ErrTxConflict, op.id, op.table)
			}
		}
	}

	// Remap provisional row ids onto fresh base ids, in redo order, so
	// the on-disk group and the in-memory apply agree byte-for-byte and
	// scan order stays ascending-id insertion order.
	nextBase := b.nextID
	remap := make(map[uint64]uint64)
	mapID := func(id uint64) uint64 {
		if id < provisionalIDBase {
			return id
		}
		if nid, ok := remap[id]; ok {
			return nid
		}
		nid := nextBase
		nextBase++
		remap[id] = nid
		return nid
	}
	applySeq := make([]redoRec, 0, len(spec.redo))
	payloads := make([][]byte, 0, len(spec.redo))
	for _, rec := range spec.redo {
		if rec.ddl != nil {
			payloads = append(payloads, stmtPayload(rec.ddl.SQL()))
			applySeq = append(applySeq, rec)
			continue
		}
		mapped := make([]rowOp, len(rec.ops))
		copy(mapped, rec.ops)
		for i := range mapped {
			mapped[i].id = mapID(mapped[i].id)
		}
		payloads = append(payloads, opsPayload(mapped))
		applySeq = append(applySeq, redoRec{ops: mapped})
	}

	if b.wal != nil {
		if err := b.wal.appendTxGroup(payloads); err != nil {
			return fmt.Errorf("sqldb: commit: %w", err)
		}
	}

	born := b.frontier.Load() + 1
	for _, rec := range applySeq {
		if rec.ddl != nil {
			_, apply, err := b.validateDDL(rec.ddl)
			if err != nil {
				// Pre-validation proved this applies; reaching here is an
				// engine bug, and continuing would tear the commit.
				panic(fmt.Sprintf("sqldb: internal: transaction DDL failed after WAL write: %v", err))
			}
			apply()
			continue
		}
		b.applyOps(rec.ops, born)
	}
	b.frontier.Store(born)
	b.afterMutate()
	return nil
}

func lowerKey(name string) string { return strings.ToLower(name) }

// Rollback abandons the transaction.
func (tx *Tx) Rollback() error {
	if err := tx.lock(); err != nil {
		return err
	}
	defer tx.mu.Unlock()
	tx.finish()
	return nil
}

package sqldb

import (
	"fmt"
	"io"
	"os"
	"strings"

	"resin/internal/core"
)

// Recovery: OpenDB replays the log at path into a fresh engine, then
// truncates any torn tail and attaches the log for appending. Every
// record replays through Engine.applyReplayGroup, as the follower's
// shipping path does: DDL records are validated and applied (a DML
// statement record is corruption), and row-ops records are
// semantically validated (Engine.checkOps) and applied with their
// logged stable ids, so the recovered entries, scan order,
// ordered-index buckets, and shadow policy columns are bit-for-bit what
// the live engine held. The engine
// gets a fresh process-unique schema generation per replayed DDL, so
// plans cached against a previous incarnation recompile instead of
// reusing stale schema conclusions.

// OpenDB opens a database persisted in a write-ahead log at path,
// replaying the committed record prefix (see docs/SQL.md §8). An empty
// path returns an in-memory database, exactly like Open — existing
// callers and benchmarks pay nothing for the persistence layer.
func OpenDB(rt *core.Runtime, path string) (*DB, error) {
	db := Open(rt)
	if path == "" {
		return db, nil
	}
	w, err := replayWAL(path, db.engine)
	if err != nil {
		return nil, err
	}
	db.engine.attachWAL(w)
	return db, nil
}

// SetWALAutoCompact arms background compaction: once the log exceeds
// bytes, the next mutation kicks off an asynchronous Compact (one at a
// time; failures leave the old, still-valid log). bytes <= 0 disables
// the policy (the default). Open snapshots stay correct: compaction
// rewrites only the file, and version reclamation respects every
// registered snapshot.
func (db *DB) SetWALAutoCompact(bytes int64) {
	db.Engine().autoCompact.Store(bytes)
}

// Close syncs and closes the write-ahead log. Later mutations fail with
// ErrDBClosed; reads keep working against the in-memory state. Closing
// an in-memory database (or closing twice) is a no-op.
func (db *DB) Close() error {
	db.txMu.Lock()
	defer db.txMu.Unlock()
	return db.engine.closeWAL()
}

// Compact rewrites the log as the minimal statement sequence that
// rebuilds the current state (snapshot + compaction, docs/SQL.md §8), so
// replay cost is bounded by live data instead of history length.
func (db *DB) Compact() error {
	return db.Engine().compactWAL()
}

// WALSize reports the log's current byte length (0 for an in-memory
// database). Tests and operators use it to decide when to Compact.
func (db *DB) WALSize() int64 {
	e := db.Engine()
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.wal == nil {
		return 0
	}
	return e.wal.size
}

// SetWALGroupCommit sets the group-commit knob: n <= 1 (the default)
// fsyncs after every mutation before it is acknowledged; n > 1 batches
// up to n mutations per fsync, trading the durability of the last
// unsynced batch on an OS crash for append throughput
// (BenchmarkSQLWALAppend measures the spread). Process-crash safety is
// unaffected: records reach the file per append, only the fsync is
// deferred.
func (db *DB) SetWALGroupCommit(n int) {
	e := db.Engine()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.wal != nil {
		e.wal.groupEvery = n
	}
}

// SyncWAL forces pending group-commit appends to stable storage.
func (db *DB) SyncWAL() error {
	e := db.Engine()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.wal == nil {
		return nil
	}
	return e.wal.syncNow()
}

func (e *Engine) attachWAL(w *wal) {
	e.mu.Lock()
	e.wal = w
	e.mu.Unlock()
}

func (e *Engine) closeWAL() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.wal == nil {
		return nil
	}
	return e.wal.close()
}

// walItem is one buffered replay unit: a DDL statement's text, or a
// DML statement's decoded row ops.
type walItem struct {
	stmt string
	ops  []rowOp
}

// replayWAL opens (creating if absent) the log at path, applies its
// committed prefix to engine, truncates any torn tail, and returns the
// log positioned for appending.
func replayWAL(path string, engine *Engine) (*wal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	// Single writer: two handles replaying and then appending to the
	// same log at independent offsets would interleave frames and
	// corrupt it. The lock is advisory, per-file, and released by
	// wal.close (or process exit).
	if err := lockWALFile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: %s", ErrWALBusy, path)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, err
	}

	corrupt := func(off int64, reason string, underlying error) (*wal, error) {
		f.Close()
		return nil, &WALCorruptionError{Path: path, Offset: off, Reason: reason, Err: underlying}
	}

	if len(data) < walHeaderSize {
		// Shorter than a header: a crash while creating the file leaves a
		// prefix of the header (torn — start the log over); anything else
		// is not a RESIN WAL.
		if !strings.HasPrefix(walMagic, string(data)) && len(data) > 0 {
			return corrupt(0, "not a RESIN WAL (bad magic)", nil)
		}
		return resetWAL(path, f)
	}
	if string(data[:len(walMagic)]) != walMagic {
		return corrupt(0, "not a RESIN WAL (bad magic)", nil)
	}
	version := data[len(walMagic)]
	if version != walVersion {
		return corrupt(int64(len(walMagic)), fmt.Sprintf("unsupported WAL version %d (want %d)", version, walVersion), nil)
	}

	// goodEnd is the offset after the last *applied* record: a standalone
	// statement or ops record, or a transaction's commit marker. Records
	// inside B..C buffer until the commit marker applies them, so a
	// group whose commit never hit the disk is dropped with the torn
	// tail.
	goodEnd := int64(walHeaderSize)
	off := walHeaderSize
	inTx := false
	var group []walItem
	for off < len(data) {
		payload, end, ok := walNextRecord(data, off)
		if !ok {
			break // torn tail: partial/zeroed framing or bad checksum
		}
		recStart := int64(off)
		off = end
		switch payload[0] {
		case walRecStmt:
			it := walItem{stmt: string(payload[1:])}
			if inTx {
				group = append(group, it)
				continue
			}
			if err := engine.applyReplayGroup([]walItem{it}); err != nil {
				return corrupt(recStart, "statement replay failed", err)
			}
			goodEnd = int64(off)
		case walRecOps:
			ops, err := decodeOpsPayload(payload[1:])
			if err != nil {
				return corrupt(recStart, "undecodable row-ops record", err)
			}
			it := walItem{ops: ops}
			if inTx {
				group = append(group, it)
				continue
			}
			if err := engine.applyReplayGroup([]walItem{it}); err != nil {
				return corrupt(recStart, "row-ops replay failed", err)
			}
			goodEnd = int64(off)
		case walRecBegin:
			if len(payload) != 1 {
				return corrupt(recStart, "begin marker with payload", nil)
			}
			if inTx {
				return corrupt(recStart, "nested transaction begin marker", nil)
			}
			inTx, group = true, nil
		case walRecCommit:
			if len(payload) != 1 {
				return corrupt(recStart, "commit marker with payload", nil)
			}
			if !inTx {
				return corrupt(recStart, "commit marker without begin", nil)
			}
			// The whole group applies under one commit version, exactly
			// as commitOps installed it live, so replayed frontiers match
			// the primary's numbering record for record.
			if err := engine.applyReplayGroup(group); err != nil {
				return corrupt(recStart, "transaction replay failed", err)
			}
			inTx, group = false, nil
			goodEnd = int64(off)
		default:
			return corrupt(recStart, fmt.Sprintf("unknown record type 0x%02x", payload[0]), nil)
		}
	}

	if goodEnd < int64(len(data)) {
		if err := f.Truncate(goodEnd); err != nil {
			f.Close()
			return nil, fmt.Errorf("sqldb: truncate torn WAL tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("sqldb: sync truncated WAL: %w", err)
		}
	}
	if _, err := f.Seek(goodEnd, 0); err != nil {
		f.Close()
		return nil, err
	}
	return &wal{path: path, f: f, size: goodEnd}, nil
}

// resetWAL starts the log over with a fresh header (new file, or a file
// torn inside the header before any record existed).
func resetWAL(path string, f *os.File) (*wal, error) {
	if err := f.Truncate(0); err != nil {
		f.Close()
		return nil, err
	}
	hdr := append([]byte(walMagic), walVersion)
	if _, err := f.WriteAt(hdr, 0); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(int64(len(hdr)), 0); err != nil {
		f.Close()
		return nil, err
	}
	return &wal{path: path, f: f, size: int64(len(hdr))}, nil
}

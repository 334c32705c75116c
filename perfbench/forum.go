package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"resin/internal/core"
	"resin/internal/sanitize"
	"resin/internal/sqldb"
	"resin/internal/wire"
)

// forum-read: newest-10 listings over the wire, with a few posts that
// keep every forum at a fixed size. Every listing sorts a whole forum
// bucket, so this is the workload the engine read path and response
// encoding show up on. Its hot set (8 forums, 1,000 author labels) fits
// every cache.
const (
	forumCount     = 8
	forumRows      = 1000 // live rows per forum, fixed
	forumAuthors   = 1000
	forumBodyLen   = 96
	forumPostEvery = 20 // 5% of ops are posts
	forumWarmOps   = 400
)

const (
	forumList   = "SELECT id, author, body FROM messages WHERE forum = ? ORDER BY id DESC LIMIT 10"
	forumInsert = "INSERT INTO messages (id, forum, author, body) VALUES (?, ?, ?, ?)"
	forumDelete = "DELETE FROM messages WHERE id = ?"
)

type forumClient struct {
	conn           *wire.Conn
	list, ins, del *wire.Stmt
	rng            *rand.Rand
	traced         bool
	replay         *sqldb.Stmt
}

type forumInst struct {
	cl      *cluster
	clients [clients]*forumClient
	// canon is each author's canonical annotation of a body.
	canon [forumAuthors][]byte

	nextID atomic.Int64
	// live holds each forum's ids, oldest first; a post appends its id
	// and deletes the oldest under the forum's lock.
	mu   [forumCount]sync.Mutex
	live [forumCount][]int64
}

func forumLabel(a int) string { return fmt.Sprintf("author:%03d", a) }

// forumBody is the text of message id: it names its forum, id and
// author, padded to a fixed length so each author has one canonical
// annotation.
func forumBody(f, a int, id int64) core.String {
	text := fmt.Sprintf("forum %d message %08d by author %03d: ", f, id, a)
	text += strings.Repeat("lorem ipsum ", forumBodyLen/12+1)[:forumBodyLen-len(text)]
	return sanitize.Taint(core.NewString(text), forumLabel(a))
}

func setupForum(seed uint64, dir string) (instance, error) {
	rt := core.NewRuntime()
	cl, err := newCluster(rt, dir)
	if err != nil {
		return nil, err
	}
	fi := &forumInst{cl: cl}
	if err := fi.build(seed); err != nil {
		fi.close()
		return nil, err
	}
	return fi, nil
}

func (fi *forumInst) build(seed uint64) error {
	for a := range fi.canon {
		enc, err := core.EncodeSpans(forumBody(1, a, 0))
		if err != nil {
			return err
		}
		fi.canon[a] = enc
	}
	db := fi.cl.primary
	for _, q := range []string{
		"CREATE TABLE messages (id INT, forum INT, author TEXT, body TEXT)",
		"CREATE INDEX ON messages (forum)",
		"CREATE INDEX ON messages (id)",
	} {
		if _, err := db.QueryRaw(q); err != nil {
			return fmt.Errorf("%s: %w", q, err)
		}
	}
	// Seed in one transaction: one log group, one fsync.
	rng := rand.New(rand.NewPCG(seed, 0))
	tx := db.Begin()
	ins, err := tx.PrepareRaw(forumInsert)
	if err != nil {
		return err
	}
	for id := int64(1); id <= forumCount*forumRows; id++ {
		f := int(id-1)%forumCount + 1
		a := rng.IntN(forumAuthors)
		if _, err := ins.Exec(id, f, fmt.Sprintf("user%03d", a), forumBody(f, a, id)); err != nil {
			tx.Rollback() //nolint:errcheck
			return fmt.Errorf("seed: %w", err)
		}
		fi.live[f-1] = append(fi.live[f-1], id)
	}
	if err := tx.Commit(); err != nil {
		return fmt.Errorf("seed commit: %w", err)
	}
	fi.nextID.Store(forumCount * forumRows)

	for c := range fi.clients {
		fc := &forumClient{}
		fi.clients[c] = fc
		if fc.conn, err = fi.cl.dial(); err != nil {
			return err
		}
		for _, p := range []struct {
			st **wire.Stmt
			q  string
		}{{&fc.list, forumList}, {&fc.ins, forumInsert}, {&fc.del, forumDelete}} {
			if *p.st, err = fc.conn.Prepare(core.NewString(p.q)); err != nil {
				return fmt.Errorf("prepare %s: %w", p.q, err)
			}
		}
		if fc.replay, err = db.PrepareRaw(forumList); err != nil {
			return err
		}
	}
	if _, err := fi.cl.catchUp(); err != nil {
		return err
	}
	// Warm the plan cache, intern table and memos with the same mix,
	// drawn from streams the timed window never uses.
	for c, fc := range fi.clients {
		fc.rng = rand.New(rand.NewPCG(^seed, uint64(c)))
	}
	if err := warm(fi, forumWarmOps); err != nil {
		return err
	}
	for c, fc := range fi.clients {
		fc.rng = rand.New(rand.NewPCG(seed, uint64(c)+1))
	}
	return nil
}

func (fi *forumInst) db() *sqldb.DB  { return fi.cl.primary }
func (fi *forumInst) wire() *cluster { return fi.cl }
func (fi *forumInst) setTraced(on bool) {
	fi.cl.lis.on.Store(on)
	for _, fc := range fi.clients {
		fc.traced = on
	}
}

func (fi *forumInst) op(c int, r *recorder) {
	fc := fi.clients[c]
	r.attempted++
	f := fc.rng.IntN(forumCount) + 1
	if fc.rng.IntN(forumPostEvery) == 0 {
		fi.post(fc, f, fc.rng.IntN(forumAuthors), r)
		return
	}
	t0 := time.Now()
	res, err := fc.list.Query(f)
	d := time.Since(t0)
	if fc.traced {
		r.calls = append(r.calls, call{kindRead, d})
	}
	if err != nil {
		r.fail(fmt.Errorf("listing forum %d: %w", f, err))
		return
	}
	if err := fi.checkListing(f, res, fc, r); err != nil {
		r.fail(err)
		return
	}
	r.reads = append(r.reads, d)
	if fc.traced {
		t1 := time.Now()
		if _, err := fc.replay.Query(f); err != nil {
			r.fail(fmt.Errorf("replay listing: %w", err))
			return
		}
		r.query = append(r.query, time.Since(t1))
	}
}

// checkListing requires 10 rows of forum f with strictly descending
// ids, each body naming its row and carrying its author's canonical
// annotation. In the traced window it also times EncodeSpans and
// DecodeSpans over the response's tainted cells.
func (fi *forumInst) checkListing(f int, res *sqldb.Result, fc *forumClient, r *recorder) error {
	if res.Len() != 10 {
		return fmt.Errorf("forum %d: %d rows, want 10", f, res.Len())
	}
	anns := make([][]byte, res.Len())
	t0 := time.Now()
	for i := range res.Rows {
		ann, err := core.EncodeSpans(res.Get(i, "body").Str)
		if err != nil {
			return err
		}
		anns[i] = ann
	}
	if fc.traced {
		r.encode = append(r.encode, time.Since(t0))
		t1 := time.Now()
		for i := range res.Rows {
			if _, err := core.DecodeSpans(res.Get(i, "body").Str.Raw(), anns[i]); err != nil {
				return err
			}
		}
		r.decode = append(r.decode, time.Since(t1))
	}
	prev := int64(-1)
	for i := range res.Rows {
		id := res.Get(i, "id").Int.Value()
		if prev >= 0 && id >= prev {
			return fmt.Errorf("forum %d: ids not strictly descending (%d after %d)", f, id, prev)
		}
		prev = id
		var a int
		if _, err := fmt.Sscanf(res.Get(i, "author").Str.Raw(), "user%d", &a); err != nil || a < 0 || a >= forumAuthors {
			return fmt.Errorf("forum %d: bad author %q", f, res.Get(i, "author").Str.Raw())
		}
		want := fmt.Sprintf("forum %d message %08d by author %03d: ", f, id, a)
		if body := res.Get(i, "body").Str.Raw(); !strings.HasPrefix(body, want) {
			return fmt.Errorf("forum %d: row %d body %q, want prefix %q", f, id, body, want)
		}
		if !bytes.Equal(anns[i], fi.canon[a]) {
			return fmt.Errorf("forum %d: row %d annotation %s, want %s", f, id, anns[i], fi.canon[a])
		}
	}
	return nil
}

// post inserts a tainted message into forum f and deletes the forum's
// oldest, so the table stays at forumCount*forumRows live rows.
func (fi *forumInst) post(fc *forumClient, f, a int, r *recorder) {
	mu := &fi.mu[f-1]
	mu.Lock()
	defer mu.Unlock()
	id := fi.nextID.Add(1)
	oldest := fi.live[f-1][0]
	body := forumBody(f, a, id)
	t0 := time.Now()
	n, err := fc.ins.Exec(id, f, fmt.Sprintf("user%03d", a), body)
	d1 := time.Since(t0)
	if err == nil && n != 1 {
		err = fmt.Errorf("insert affected %d rows", n)
	}
	if fc.traced {
		r.calls = append(r.calls, call{kindWrite, d1})
	}
	if err != nil {
		r.fail(fmt.Errorf("post to forum %d: %w", f, err))
		return
	}
	fi.live[f-1] = append(fi.live[f-1], id)
	t1 := time.Now()
	n, err = fc.del.Exec(oldest)
	d2 := time.Since(t1)
	if err == nil && n != 1 {
		err = fmt.Errorf("delete of %d affected %d rows", oldest, n)
	}
	if fc.traced {
		r.calls = append(r.calls, call{kindWrite, d2})
	}
	if err != nil {
		r.fail(fmt.Errorf("trim forum %d: %w", f, err))
		return
	}
	fi.live[f-1] = fi.live[f-1][1:]
	r.writes = append(r.writes, d1+d2)
}

// verify requires the replica to reach the primary's frontier with the
// same rows and annotations.
func (fi *forumInst) verify() error {
	if _, err := fi.cl.catchUp(); err != nil {
		return err
	}
	return sameState(fi.cl, map[string]int{"SELECT id, forum, author, body FROM messages": forumCount * forumRows})
}

func (fi *forumInst) close() {
	for _, fc := range fi.clients {
		if fc != nil && fc.conn != nil {
			fc.conn.Close() //nolint:errcheck
		}
	}
	fi.cl.close()
}

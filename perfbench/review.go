package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"resin/internal/core"
	"resin/internal/sanitize"
	"resin/internal/sqldb"
	"resin/internal/wire"
)

// review-txn: HotCRP-style review updates, each a wire transaction that
// authorizes against an assignment row, rewrites a review body under a
// label never used before, and touches the paper row. This is the
// transaction, WAL and replication path; it never sorts and never hits
// a memo.
const (
	reviewPapers    = 1000
	reviewPerPaper  = 3 // assignments and reviews per paper
	reviewReviewers = 100
	reviewBodyLen   = 128
	reviewWarmOps   = 40
	// reviewMaxTries bounds the retries of one transaction that keeps
	// losing first-committer-wins races.
	reviewMaxTries = 100
)

const (
	reviewAuthz       = "SELECT paper, reviewer FROM assignments WHERE id = ?"
	reviewUpdateBody  = "UPDATE reviews SET body = ? WHERE id = ?"
	reviewUpdatePaper = "UPDATE papers SET last_review = ? WHERE id = ?"
)

type reviewClient struct {
	conn   *wire.Conn
	rng    *rand.Rand
	traced bool
	replay *sqldb.Stmt
	// n numbers this client's review labels, so none repeats.
	n int
	// acked is the body of the last acknowledged update of each review
	// this client owns; clients own disjoint reviews.
	acked map[int64]core.String
}

type reviewInst struct {
	seed    uint64
	cl      *cluster
	clients [clients]*reviewClient
	// reviewer[r] is the assigned reviewer of review (and assignment) r.
	reviewer []int64
}

// reviewPaper is the paper of review r (1-based).
func reviewPaper(r int64) int64 { return (r-1)/reviewPerPaper + 1 }

// reviewBody is a fixed-length review text, tainted with label.
func reviewBody(r int64, label string) core.String {
	text := fmt.Sprintf("review %05d [%s] ", r, label)
	text += strings.Repeat("the evaluation is sound. ", reviewBodyLen/25+1)[:reviewBodyLen-len(text)]
	return sanitize.Taint(core.NewString(text), label)
}

func setupReview(seed uint64, dir string) (instance, error) {
	rt := core.NewRuntime()
	cl, err := newCluster(rt, dir)
	if err != nil {
		return nil, err
	}
	ri := &reviewInst{seed: seed, cl: cl}
	if err := ri.build(); err != nil {
		ri.close()
		return nil, err
	}
	return ri, nil
}

func (ri *reviewInst) build() error {
	db := ri.cl.primary
	for _, q := range []string{
		"CREATE TABLE papers (id INT, title TEXT, last_review INT)",
		"CREATE TABLE assignments (id INT, paper INT, reviewer INT)",
		"CREATE TABLE reviews (id INT, paper INT, reviewer INT, body TEXT)",
		"CREATE INDEX ON papers (id)",
		"CREATE INDEX ON assignments (id)",
		"CREATE INDEX ON reviews (id)",
	} {
		if _, err := db.QueryRaw(q); err != nil {
			return fmt.Errorf("%s: %w", q, err)
		}
	}
	rng := rand.New(rand.NewPCG(ri.seed, 0))
	tx := db.Begin()
	seed := func(q string, args ...any) error {
		if _, err := tx.QueryRaw(q, args...); err != nil {
			tx.Rollback() //nolint:errcheck
			return fmt.Errorf("seed: %w", err)
		}
		return nil
	}
	nReviews := int64(reviewPapers * reviewPerPaper)
	ri.reviewer = make([]int64, nReviews+1)
	for p := int64(1); p <= reviewPapers; p++ {
		if err := seed("INSERT INTO papers (id, title, last_review) VALUES (?, ?, ?)", p, fmt.Sprintf("Paper %d", p), 0); err != nil {
			return err
		}
	}
	for r := int64(1); r <= nReviews; r++ {
		ri.reviewer[r] = int64(rng.IntN(reviewReviewers)) + 1
		if err := seed("INSERT INTO assignments (id, paper, reviewer) VALUES (?, ?, ?)", r, reviewPaper(r), ri.reviewer[r]); err != nil {
			return err
		}
		if err := seed("INSERT INTO reviews (id, paper, reviewer, body) VALUES (?, ?, ?, ?)",
			r, reviewPaper(r), ri.reviewer[r], reviewBody(r, fmt.Sprintf("seed:%d", r))); err != nil {
			return err
		}
	}
	if err := tx.Commit(); err != nil {
		return fmt.Errorf("seed commit: %w", err)
	}
	var err error
	for c := range ri.clients {
		rc := &reviewClient{acked: map[int64]core.String{}}
		ri.clients[c] = rc
		if rc.conn, err = ri.cl.dial(); err != nil {
			return err
		}
		if rc.replay, err = db.PrepareRaw(reviewAuthz); err != nil {
			return err
		}
	}
	if _, err := ri.cl.catchUp(); err != nil {
		return err
	}
	for c, rc := range ri.clients {
		rc.rng = rand.New(rand.NewPCG(^ri.seed, uint64(c)))
	}
	if err := warm(ri, reviewWarmOps); err != nil {
		return err
	}
	for c, rc := range ri.clients {
		rc.rng = rand.New(rand.NewPCG(ri.seed, uint64(c)+1))
	}
	return nil
}

func (ri *reviewInst) db() *sqldb.DB  { return ri.cl.primary }
func (ri *reviewInst) wire() *cluster { return ri.cl }
func (ri *reviewInst) setTraced(on bool) {
	ri.cl.lis.on.Store(on)
	for _, rc := range ri.clients {
		rc.traced = on
	}
}

// op runs one review transaction for a review client c owns, retrying
// on ErrTxConflict. Its latency runs from the first Begin to the
// acknowledged Commit.
func (ri *reviewInst) op(c int, r *recorder) {
	rc := ri.clients[c]
	r.attempted++
	// Client c owns the reviews whose id-1 is c modulo clients.
	id := int64(rc.rng.IntN(reviewPapers*reviewPerPaper/clients)*clients+c) + 1
	t0 := time.Now()
	for try := 1; ; try++ {
		r.txAttempts++
		rc.n++
		body := reviewBody(id, fmt.Sprintf("rv:%d:%d:%d", ri.seed, c, rc.n))
		err := ri.txn(rc, id, body, r)
		if err == nil {
			r.writes = append(r.writes, time.Since(t0))
			rc.acked[id] = body
			return
		}
		if !strings.Contains(err.Error(), sqldb.ErrTxConflict.Error()) || try == reviewMaxTries {
			r.fail(fmt.Errorf("review %d: %w", id, err))
			return
		}
		r.conflicts++
	}
}

// txn runs one attempt; on any error the transaction is rolled back.
func (ri *reviewInst) txn(rc *reviewClient, id int64, body core.String, r *recorder) error {
	timed := func(kind byte, f func() error) error {
		t := time.Now()
		err := f()
		d := time.Since(t)
		if rc.traced {
			r.calls = append(r.calls, call{kind, d})
		}
		if kind == kindRead && err == nil {
			r.reads = append(r.reads, d)
		}
		return err
	}
	if err := timed(kindBegin, rc.conn.Begin); err != nil {
		return err
	}
	committed := false
	defer func() {
		if !committed {
			// The attempt has already failed; the rollback only frees
			// the connection's transaction, so its error adds nothing.
			timed(kindWrite, rc.conn.Rollback) //nolint:errcheck
		}
	}()
	var res *sqldb.Result
	if err := timed(kindRead, func() (e error) {
		res, e = rc.conn.Query(core.NewString(reviewAuthz), id)
		return e
	}); err != nil {
		return err
	}
	if res.Len() != 1 || res.Get(0, "paper").Int.Value() != reviewPaper(id) || res.Get(0, "reviewer").Int.Value() != ri.reviewer[id] {
		return fmt.Errorf("assignment %d: got %d rows, want paper %d reviewer %d", id, res.Len(), reviewPaper(id), ri.reviewer[id])
	}
	if rc.traced {
		t := time.Now()
		if _, err := rc.replay.Query(id); err != nil {
			return err
		}
		r.query = append(r.query, time.Since(t))
		// The op's only tainted cell is the body it writes: time its
		// annotation both ways. Its label is new, so no memo can hit.
		t = time.Now()
		ann, err := core.EncodeSpans(body)
		if err != nil {
			return err
		}
		r.encode = append(r.encode, time.Since(t))
		t = time.Now()
		if _, err := core.DecodeSpans(body.Raw(), ann); err != nil {
			return err
		}
		r.decode = append(r.decode, time.Since(t))
	}
	for _, u := range []struct {
		q    string
		args []any
	}{{reviewUpdateBody, []any{body, id}}, {reviewUpdatePaper, []any{id, reviewPaper(id)}}} {
		var n int
		if err := timed(kindWrite, func() (e error) {
			n, e = rc.conn.Exec(core.NewString(u.q), u.args...)
			return e
		}); err != nil {
			return err
		}
		if n != 1 {
			return fmt.Errorf("%s: %d rows affected", u.q, n)
		}
	}
	committed = true // a failed Commit ends the transaction too
	return timed(kindCommit, rc.conn.Commit)
}

// verify requires the replica to reach the primary's frontier with the
// same rows and annotations in all three tables, and every acknowledged
// review to read back with its own label.
func (ri *reviewInst) verify() error {
	if _, err := ri.cl.catchUp(); err != nil {
		return err
	}
	n := reviewPapers * reviewPerPaper
	if err := sameState(ri.cl, map[string]int{
		"SELECT id, title, last_review FROM papers":     reviewPapers,
		"SELECT id, paper, reviewer FROM assignments":   n,
		"SELECT id, paper, reviewer, body FROM reviews": n,
	}); err != nil {
		return err
	}
	res, err := ri.cl.primary.QueryRaw("SELECT id, body FROM reviews")
	if err != nil {
		return err
	}
	stored := make(map[int64]core.String, res.Len())
	for i := range res.Rows {
		stored[res.Get(i, "id").Int.Value()] = res.Get(i, "body").Str
	}
	checked := 0
	for _, rc := range ri.clients {
		for id, want := range rc.acked {
			got := stored[id]
			if got.Raw() != want.Raw() {
				return fmt.Errorf("review %d reads back %q, acknowledged %q", id, got.Raw(), want.Raw())
			}
			ga, err := core.EncodeSpans(got)
			if err != nil {
				return err
			}
			wa, err := core.EncodeSpans(want)
			if err != nil {
				return err
			}
			if !bytes.Equal(ga, wa) {
				return fmt.Errorf("review %d reads back annotation %s, acknowledged %s", id, ga, wa)
			}
			checked++
		}
	}
	if checked == 0 {
		return errors.New("no review update was acknowledged")
	}
	return nil
}

func (ri *reviewInst) close() {
	for _, rc := range ri.clients {
		if rc != nil && rc.conn != nil {
			rc.conn.Close() //nolint:errcheck
		}
	}
	ri.cl.close()
}

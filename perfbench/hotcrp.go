package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
	"time"

	"resin/internal/apps/hotcrp"
	"resin/internal/core"
	"resin/internal/httpd"
	"resin/internal/sqldb"
)

// hotcrp-page: the paper's §7.1 page through httpd, core and sqldb, in
// process (no wire, no sort, no WAL). 4,000 papers, each page decoding
// three policy-carrying cells, overflow the DecodeSpans memo and the
// intern table's young generation, so this working set is larger than
// the program's caches.
const (
	hotcrpPapers      = 4000
	hotcrpAuthors     = 200 // author accounts beyond the default users
	hotcrpRemindEvery = 10  // 10% of ops are /remind
	hotcrpWarmOps     = 1000
)

const (
	viewerPC = iota
	viewerChair
	viewerAuthor
)

const hotcrpPaperQuery = "SELECT title, abstract, authors, anonymous FROM papers WHERE id = ?"

type hotcrpInst struct {
	app       *hotcrp.App
	pagesOnly bool // the unmodified baseline: no /remind

	papers    []hotcrp.Paper // index = paper id
	byAuthor  [][]int        // paper ids of each pool author
	emails    []string       // every account
	passwords map[string]string

	pc, chair *httpd.Session
	authors   []*httpd.Session // one per pool author
	replay    *sqldb.Stmt
	rngs      [clients]*rand.Rand
	traced    bool
	seed      uint64
}

func poolAuthor(i int) string { return fmt.Sprintf("author%03d@pool.edu", i) }

func setupHotCRP(seed uint64, _ string) (instance, error) {
	return newHotCRP(seed, true, false)
}

func newHotCRP(seed uint64, withResin, pagesOnly bool) (*hotcrpInst, error) {
	rt := core.NewRuntime()
	if !withResin {
		rt = core.NewUntrackedRuntime()
	}
	h := &hotcrpInst{
		app:       hotcrp.New(rt, withResin),
		pagesOnly: pagesOnly,
		passwords: map[string]string{},
		seed:      seed,
	}
	h.app.EmailPreview = true
	rng := rand.New(rand.NewPCG(seed, 0))

	for _, u := range hotcrp.DefaultUsers() {
		h.emails = append(h.emails, u.Email)
		h.passwords[u.Email] = u.Password
	}
	h.byAuthor = make([][]int, hotcrpAuthors)
	for i := 0; i < hotcrpAuthors; i++ {
		u := hotcrp.User{Email: poolAuthor(i), Password: fmt.Sprintf("pw-%03d-%08x", i, rng.Uint32())}
		h.app.AddUser(u)
		h.emails = append(h.emails, u.Email)
		h.passwords[u.Email] = u.Password
	}

	h.papers = make([]hotcrp.Paper, hotcrpPapers+1)
	for _, p := range hotcrp.DefaultPapers() {
		h.papers[p.ID] = p
	}
	for id := len(hotcrp.DefaultPapers()) + 1; id <= hotcrpPapers; id++ {
		// Every pool author has papers; odd ids are anonymous, so half
		// of all papers are.
		first := id % hotcrpAuthors
		authors := []int{first}
		for k := rng.IntN(3); k > 0; k-- {
			if a := rng.IntN(hotcrpAuthors); a != first && a != authors[len(authors)-1] {
				authors = append(authors, a)
			}
		}
		p := hotcrp.Paper{
			ID:        id,
			Title:     fmt.Sprintf("Paper %d on Flow %08x", id, rng.Uint32()),
			Abstract:  fmt.Sprintf("Abstract of paper %d: %s", id, strings.Repeat("we track data flow. ", 4)),
			Anonymous: id%2 == 1,
		}
		for _, a := range authors {
			p.Authors = append(p.Authors, poolAuthor(a))
			h.byAuthor[a] = append(h.byAuthor[a], id)
		}
		h.app.AddPaper(p)
		h.papers[id] = p
	}

	h.pc = h.app.Server.NewSession("pc@conf.org")
	h.chair = h.app.Server.NewSession("chair@conf.org")
	for i := 0; i < hotcrpAuthors; i++ {
		h.authors = append(h.authors, h.app.Server.NewSession(poolAuthor(i)))
	}
	var err error
	if h.replay, err = h.app.DB.PrepareRaw(hotcrpPaperQuery); err != nil {
		return nil, err
	}
	for c := range h.rngs {
		h.rngs[c] = rand.New(rand.NewPCG(^seed, uint64(c)))
	}
	if err := warm(h, hotcrpWarmOps); err != nil {
		return nil, err
	}
	for c := range h.rngs {
		h.rngs[c] = rand.New(rand.NewPCG(seed, uint64(c)+1))
	}
	return h, nil
}

func (h *hotcrpInst) db() *sqldb.DB     { return h.app.DB }
func (h *hotcrpInst) wire() *cluster    { return nil }
func (h *hotcrpInst) setTraced(on bool) { h.traced = on }
func (h *hotcrpInst) verify() error     { return nil } // every response is checked as it arrives
func (h *hotcrpInst) close()            {}

func (h *hotcrpInst) op(c int, r *recorder) {
	rng := h.rngs[c]
	r.attempted++
	// The unmodified application leaks the password by design, so its
	// baseline turns every /remind draw into a page.
	remind := rng.IntN(hotcrpRemindEvery) == 0 && !h.pagesOnly
	viewer := rng.IntN(3)
	var sess *httpd.Session
	var id int
	switch viewer {
	case viewerPC:
		sess, id = h.pc, rng.IntN(hotcrpPapers)+1
	case viewerChair:
		sess, id = h.chair, rng.IntN(hotcrpPapers)+1
	default:
		a := rng.IntN(hotcrpAuthors)
		sess, id = h.authors[a], h.byAuthor[a][rng.IntN(len(h.byAuthor[a]))]
	}
	if remind {
		// The requester asks for another account's password; the chair
		// may legitimately see any password, so the chair never asks.
		if viewer == viewerChair {
			sess = h.pc
		}
		target := h.emails[rng.IntN(len(h.emails))]
		for target == sess.User {
			target = h.emails[rng.IntN(len(h.emails))]
		}
		h.remind(sess, target, r)
		return
	}
	h.page(sess, viewer, id, r)
}

// page requests /paper?id= and checks the title and the author list:
// "Anonymous" exactly when the paper is anonymous and the viewer is
// neither the chair nor one of its authors.
func (h *hotcrpInst) page(sess *httpd.Session, viewer, id int, r *recorder) {
	t0 := time.Now()
	resp, err := h.app.Server.Do("GET", "/paper", map[string]string{"id": strconv.Itoa(id)}, sess)
	d := time.Since(t0)
	if err != nil {
		r.fail(fmt.Errorf("paper %d for %s: %w", id, sess.User, err))
		return
	}
	p := &h.papers[id]
	body := resp.RawBody()
	if !strings.Contains(body, "<h1>"+p.Title+"</h1>") {
		r.fail(fmt.Errorf("paper %d for %s: title %q missing", id, sess.User, p.Title))
		return
	}
	isAuthor := false
	for _, a := range p.Authors {
		isAuthor = isAuthor || a == sess.User
	}
	anonymized := strings.Contains(body, `<div class="authors">Anonymous</div>`)
	wantAnon := p.Anonymous && viewer != viewerChair && !isAuthor
	shown := strings.Contains(body, `<div class="authors">`+strings.Join(p.Authors, ", ")+`</div>`)
	if anonymized != wantAnon || shown == wantAnon {
		r.fail(fmt.Errorf("paper %d (anonymous=%v) for %s: anonymized=%v shown=%v, want anonymized=%v",
			id, p.Anonymous, sess.User, anonymized, shown, wantAnon))
		return
	}
	r.reads = append(r.reads, d)
	r.pages = append(r.pages, d)
	if h.traced {
		if err := h.traceReplay(id, r); err != nil {
			r.fail(err)
		}
	}
}

// traceReplay replays the page's paper read through app.DB and times
// EncodeSpans and DecodeSpans over its tainted cells.
func (h *hotcrpInst) traceReplay(id int, r *recorder) error {
	t := time.Now()
	res, err := h.replay.Query(id)
	if err != nil {
		return fmt.Errorf("replay paper %d: %w", id, err)
	}
	r.query = append(r.query, time.Since(t))
	var cells []core.String
	for _, col := range []string{"title", "abstract", "authors"} {
		if s := res.Get(0, col).Str; s.IsTainted() {
			cells = append(cells, s)
		}
	}
	anns := make([][]byte, len(cells))
	t = time.Now()
	for i, s := range cells {
		if anns[i], err = core.EncodeSpans(s); err != nil {
			return err
		}
	}
	r.encode = append(r.encode, time.Since(t))
	t = time.Now()
	for i, s := range cells {
		if _, err := core.DecodeSpans(s.Raw(), anns[i]); err != nil {
			return err
		}
	}
	r.decode = append(r.decode, time.Since(t))
	return nil
}

// remind asks for target's password reminder in email-preview mode; the
// PasswordPolicy must refuse it and the page must not hold the password.
func (h *hotcrpInst) remind(sess *httpd.Session, target string, r *recorder) {
	t0 := time.Now()
	resp, err := h.app.Server.Do("GET", "/remind", map[string]string{"email": target}, sess)
	d := time.Since(t0)
	var ae *core.AssertionError
	if !errors.As(err, &ae) {
		r.fail(fmt.Errorf("remind %s by %s: error %v, want an assertion error", target, sess.User, err))
		return
	}
	if resp == nil || strings.Contains(resp.RawBody(), h.passwords[target]) {
		r.fail(fmt.Errorf("remind %s by %s: password disclosed", target, sess.User))
		return
	}
	r.reads = append(r.reads, d)
}

// baselinePageP50 measures the same page mix on an unmodified instance
// (untracked runtime, no assertions), as NewBenchInstance(false) does.
func (h *hotcrpInst) baselinePageP50(d time.Duration) (time.Duration, error) {
	plain, err := newHotCRP(h.seed, false, true)
	if err != nil {
		return 0, err
	}
	w := runWindow(plain, d)
	if w.all.firstErr != nil {
		return 0, fmt.Errorf("unmodified instance: %w", w.all.firstErr)
	}
	return quantile(w.all.pages, 0.5), nil
}

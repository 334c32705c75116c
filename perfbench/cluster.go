package main

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"resin/internal/core"
	"resin/internal/sqldb"
	"resin/internal/wire"
)

// cluster is the wire workloads' server side, in this process: a
// WAL-backed primary served over TCP and one WAL-shipping replica. The
// replica ships through a second server on the same primary database,
// so the clients' listener sees only the clients' connections.
type cluster struct {
	primary *sqldb.DB
	rep     *wire.Replica
	lis     *tracedListener
	srv     *wire.Server
	shipSrv *wire.Server

	stopRep func()
}

func newCluster(rt *core.Runtime, dir string) (*cluster, error) {
	db, err := sqldb.OpenDB(rt, filepath.Join(dir, "primary.wal"))
	if err != nil {
		return nil, err
	}
	cl := &cluster{primary: db, stopRep: func() {}}
	plis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cl.close()
		return nil, err
	}
	cl.lis = &tracedListener{Listener: plis}
	cl.srv = wire.NewServer(db, wire.Config{})
	go cl.srv.Serve(cl.lis) //nolint:errcheck // returns nil after Shutdown

	slis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cl.close()
		return nil, err
	}
	cl.shipSrv = wire.NewServer(db, wire.Config{})
	go cl.shipSrv.Serve(slis) //nolint:errcheck // returns nil after Shutdown

	cl.rep, err = wire.NewReplica(rt, slis.Addr().String(), filepath.Join(dir, "replica.wal"))
	if err != nil {
		cl.close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		cl.rep.Run(ctx) //nolint:errcheck // returns nil when ctx ends
	}()
	cl.stopRep = func() {
		cancel()
		<-done
	}
	return cl, nil
}

// dial opens a client connection. Clients dial one at a time, so the
// listener's n-th traced connection is the n-th dialled client.
func (cl *cluster) dial() (*wire.Conn, error) {
	return wire.Dial(cl.lis.Addr().String())
}

// catchUp waits until the replica has applied everything the primary
// committed, and returns how long that took.
func (cl *cluster) catchUp() (time.Duration, error) {
	start := time.Now()
	want := cl.primary.Frontier()
	for cl.rep.DB().Frontier() < want || cl.rep.Staleness() > 0 {
		if time.Since(start) > time.Minute {
			return 0, fmt.Errorf("replica at frontier %d, primary at %d after a minute", cl.rep.DB().Frontier(), want)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return time.Since(start), nil
}

func (cl *cluster) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, s := range []*wire.Server{cl.srv, cl.shipSrv} {
		if s != nil {
			s.Shutdown(ctx) //nolint:errcheck // forced close after the timeout is fine at teardown
		}
	}
	cl.stopRep()
	if cl.rep != nil {
		cl.rep.DB().Close() //nolint:errcheck
	}
	cl.primary.Close() //nolint:errcheck
}

// sampleLag polls, until the returned stop is called, how many bytes
// of the primary's log the replica has not applied yet; stop returns
// the largest sample. Staleness() would count only bytes the replica
// has received but not applied.
func (cl *cluster) sampleLag() (stop func() int64) {
	quit, done := make(chan struct{}), make(chan struct{})
	var max int64
	go func() {
		defer close(done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				if lag := cl.primary.WALSize() - cl.rep.Status().Applied; lag > max {
					max = lag
				}
			}
		}
	}()
	return func() int64 {
		close(quit)
		<-done
		return max
	}
}

// tracedListener wraps the primary's client listener. While on, each
// accepted connection records one span per request: from the read that
// brings the request's first bytes to the last response write before
// the next request. The wire server handles a connection's requests
// one at a time, so a connection's spans are in its client's call order.
type tracedListener struct {
	net.Listener
	on    atomic.Bool
	mu    sync.Mutex
	conns []*connTrace
}

type span struct {
	d             time.Duration
	bytes, writes int
}

type connTrace struct {
	on *atomic.Bool

	mu         sync.Mutex
	open       bool // a request was read and its span not yet closed
	start, end time.Time
	bytes      int
	writes     int
	spans      []span
}

type tracedConn struct {
	net.Conn
	t *connTrace
}

func (l *tracedListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	t := &connTrace{on: &l.on}
	l.mu.Lock()
	l.conns = append(l.conns, t)
	l.mu.Unlock()
	return &tracedConn{Conn: nc, t: t}, nil
}

// take returns and clears the spans of the i-th accepted connection.
func (l *tracedListener) take(i int) []span {
	l.mu.Lock()
	t := l.conns[i]
	l.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closeSpan()
	s := t.spans
	t.spans = nil
	return s
}

func (t *connTrace) closeSpan() {
	if t.open && t.writes > 0 {
		t.spans = append(t.spans, span{d: t.end.Sub(t.start), bytes: t.bytes, writes: t.writes})
	}
	t.open = false
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.t.on.Load() {
		now := time.Now()
		t := c.t
		t.mu.Lock()
		if t.open && t.writes > 0 {
			t.closeSpan() // the previous response is complete
		}
		if !t.open {
			t.open, t.start, t.bytes, t.writes = true, now, 0, 0
		}
		t.mu.Unlock()
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.t.on.Load() {
		now := time.Now()
		t := c.t
		t.mu.Lock()
		if t.open {
			t.end = now
			t.bytes += n
			t.writes++
		}
		t.mu.Unlock()
	}
	return n, err
}

// Command perfbench is the repository benchmark. It runs one workload
// per process against the RESIN reproduction, checks every output,
// and prints the metrics named in BENCHMARK.json; NOTES.md says what
// each workload and metric is for.
//
// Usage (from the root of a checkout; run.sh builds and runs it):
//
//	perfbench --workload forum-read|review-txn|hotcrp-page --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with no tracing. --trace 1
// measures the per-layer metrics: an untraced window for the counters,
// then a traced window that times each call into a layer from this
// program's own code. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"resin/internal/core"
	"resin/internal/sqldb"
)

// clients is the closed-loop client count: each client sends its next
// operation only after the previous one completes.
const clients = 2

// setupRepeats is how many times a run builds its workload state;
// setup_s is the median, and the last instance is the one measured.
const setupRepeats = 3

// workload builds one instance of a workload from a seed. dir is a
// fresh directory for the instance's files.
type workload struct {
	name  string
	setup func(seed uint64, dir string) (instance, error)
}

var workloads = []workload{
	{"forum-read", setupForum},
	{"review-txn", setupReview},
	{"hotcrp-page", setupHotCRP},
}

// instance is a set-up workload, warmed and ready for timed operations.
type instance interface {
	// op runs client c's next operation and records it in r. Client c
	// is only ever driven from one goroutine.
	op(c int, r *recorder)
	// db is the database whose plan cache and log the metrics read.
	db() *sqldb.DB
	// wire is the primary/replica pair, or nil for in-process workloads.
	wire() *cluster
	// setTraced turns the per-layer timing of op on or off. It is only
	// called between windows, while no operation is in flight.
	setTraced(on bool)
	// verify runs the end-of-run output checks.
	verify() error
	close()
}

// baseliner is an instance that can measure the same page mix on an
// unmodified (untracked) application, for core.tracking_overhead.
type baseliner interface {
	baselinePageP50(d time.Duration) (time.Duration, error)
}

// Op kinds a client records for each request it sends over the wire,
// in order, so the traced run can pair them with the server's spans.
const (
	kindRead byte = iota
	kindWrite
	kindBegin
	kindCommit
)

type call struct {
	kind byte
	d    time.Duration
}

// recorder collects one client's samples for one window.
type recorder struct {
	attempted, failed int64
	firstErr          error
	reads, writes     []time.Duration // completed ops only
	pages             []time.Duration // hotcrp /paper requests only
	txAttempts        int64
	conflicts         int64

	// Traced window only.
	calls  []call          // every wire request, in send order
	query  []time.Duration // in-process replay of the op's read
	encode []time.Duration // EncodeSpans over one response's tainted cells
	decode []time.Duration // DecodeSpans of the same annotations
}

// fail records a failed operation; the first error is kept for the log.
func (r *recorder) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

func (r *recorder) merge(o *recorder) {
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
	r.reads = append(r.reads, o.reads...)
	r.writes = append(r.writes, o.writes...)
	r.pages = append(r.pages, o.pages...)
	r.txAttempts += o.txAttempts
	r.conflicts += o.conflicts
	r.calls = append(r.calls, o.calls...)
	r.query = append(r.query, o.query...)
	r.encode = append(r.encode, o.encode...)
	r.decode = append(r.decode, o.decode...)
}

// window is the outcome of one timed window.
type window struct {
	all     recorder
	clients [clients]*recorder
	elapsed time.Duration
	// rates is the completed-op rate of each whole slice of the window,
	// in order.
	rates []float64
}

func (w *window) completed() int64 { return w.all.attempted - w.all.failed }

// throughput is the median of the window's slice rates. A stall of a
// few seconds, such as a slow fsync on a busy disk, moves a mean over
// the window but not this median.
func (w *window) throughput() float64 {
	if len(w.rates) == 0 {
		return float64(w.completed()) / w.elapsed.Seconds()
	}
	rs := slices.Clone(w.rates)
	slices.Sort(rs)
	n := len(rs)
	if n%2 == 1 {
		return rs[n/2]
	}
	return (rs[n/2-1] + rs[n/2]) / 2
}

// sliceFor is the length of the slices a window of length d is cut
// into for its throughput: one second, or a fifth of d if d is shorter
// than five seconds.
func sliceFor(d time.Duration) time.Duration {
	if d < 5*time.Second {
		return d / 5
	}
	return time.Second
}

// runWindow drives every client in a closed loop for d. A sampler
// counts completed ops at the end of each slice.
func runWindow(inst instance, d time.Duration) *window {
	w := &window{}
	var wg sync.WaitGroup
	var done atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		r := &recorder{}
		w.clients[c] = r
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				failed := r.failed
				inst.op(c, r)
				if r.failed == failed {
					done.Add(1)
				}
			}
		}(c)
	}
	slice := sliceFor(d)
	prevT, prevN := start, int64(0)
	for k := time.Duration(1); k*slice <= d; k++ {
		time.Sleep(time.Until(start.Add(k * slice)))
		t, n := time.Now(), done.Load()
		w.rates = append(w.rates, float64(n-prevN)/t.Sub(prevT).Seconds())
		prevT, prevN = t, n
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	for _, r := range w.clients {
		w.all.merge(r)
	}
	return w
}

// counters is a snapshot of the process-global and per-DB counters the
// per-layer metrics are deltas of.
type counters struct {
	sorts, limitStops, parses, lexes uint64
	plan                             sqldb.PlanCacheStats
	intern                           core.InternStats
	walSize                          int64
	cpu                              time.Duration
	mem                              runtime.MemStats
	resyncs                          int64
}

func snapshot(inst instance) counters {
	c := counters{
		sorts:      sqldb.SortCount(),
		limitStops: sqldb.LimitStopCount(),
		parses:     sqldb.ParseCount(),
		lexes:      sqldb.TokenizeCount(),
		plan:       inst.db().Filter().PlanStats(),
		intern:     core.ReadInternStats(),
		walSize:    inst.db().WALSize(),
		cpu:        cpuTime(),
	}
	runtime.ReadMemStats(&c.mem)
	if cl := inst.wire(); cl != nil {
		c.resyncs = cl.rep.Resyncs()
	}
	return c
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// quantile returns the nearest-rank q-quantile of ds (sorted in place).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	if i < 0 {
		i = 0
	}
	return ds[i]
}

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// report holds the metrics of a run in print order.
type report struct {
	names   []string
	metrics map[string]metric
	notes   map[string]string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, notes: map[string]string{}}
}

// add records a metric for the JSON line; note is printed beside it.
func (r *report) add(name string, v float64, unit, note string) {
	r.names = append(r.names, name)
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.notes[name] = note
}

// info prints a line for the reader without adding a JSON metric.
func info(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) }

func samples(n int) string { return fmt.Sprintf("n=%d", n) }

func main() {
	name := flag.String("workload", "", "workload: forum-read, review-txn or hotcrp-page")
	seed := flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 35, "length of the timed measurement")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from counters and a traced window")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, measure time.Duration, traced bool) error {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if measure <= 0 {
		return errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work) //nolint:errcheck

	info("workload %s, seed %d, %d closed-loop clients in one process, GOMAXPROCS=%d", name, seed, clients, runtime.GOMAXPROCS(0))

	// Set up several times; each set-up runs from an empty directory
	// to the first timed operation, warm-up included. The traced run
	// reports no set-up time and sets up once.
	repeats := setupRepeats
	if traced {
		repeats = 1
	}
	var setups []time.Duration
	var inst instance
	for i := 0; i < repeats; i++ {
		if inst != nil {
			inst.close()
			runtime.GC()
			debug.FreeOSMemory()
		}
		dir := filepath.Join(work, fmt.Sprintf("setup%d", i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return err
		}
		t0 := time.Now()
		inst, err = wl.setup(seed, dir)
		if err != nil {
			return fmt.Errorf("set up %s: %w", name, err)
		}
		setups = append(setups, time.Since(t0))
	}
	defer inst.close()
	runtime.GC()
	if inst.wire() != nil {
		info("primary and replica WALs: fsync per mutation (the default), no group commit, no auto-compact")
	} else {
		info("in-memory database, no WAL")
	}

	rep := newReport()
	var res *window
	if traced {
		res, err = runTraced(inst, measure, rep)
	} else {
		res = runEndToEnd(inst, measure, setups, rep)
	}
	if err != nil {
		return err
	}
	correct := res.all.failed == 0
	if res.all.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failed op:", res.all.firstErr)
	}
	if err := inst.verify(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", err)
		correct = false
	}
	for _, n := range rep.names {
		m := rep.metrics[n]
		fmt.Printf("%-34s %14.4f %-6s %s\n", n, m.Value, m.Unit, rep.notes[n])
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, res.all.attempted, res.all.failed, rep.metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !correct {
		return errors.New("the run failed its output checks")
	}
	return nil
}

// runEndToEnd measures the end-to-end metrics over one untraced window.
func runEndToEnd(inst instance, measure time.Duration, setups []time.Duration, rep *report) *window {
	walBefore := inst.db().WALSize()
	w := runWindow(inst, measure)
	all := &w.all
	rep.add("throughput_ops_s", w.throughput(), "1/s", fmt.Sprintf("median of %d slice rates %v; %d ops in %.3f s",
		len(w.rates), sliceFor(measure), w.completed(), w.elapsed.Seconds()))
	if len(w.rates) > 0 {
		info("slice rates (ops/s): min %.1f, max %.1f, mean over the window %.1f; in order %.0f",
			slices.Min(w.rates), slices.Max(w.rates), float64(w.completed())/w.elapsed.Seconds(), w.rates)
	}
	rep.add("read_p50_ms", ms(quantile(all.reads, 0.50)), "ms", samples(len(all.reads)))
	rep.add("max_rss_mb", maxRSSMB(), "MB", "peak resident memory of the process")
	rep.add("setup_s", quantile(setups, 0.5).Seconds(), "s", fmt.Sprintf("median of %d set-ups %v", len(setups), setups))
	tailMetrics(inst, w, walBefore, func(name string, v float64, unit, note string) {
		info("%-32s %14.4f %-6s %s", name, v, unit, note)
	})
	return w
}

// tailMetrics reports the end-to-end quantities that the JSON carries
// among the per-layer metrics, because the benchmark gates every JSON
// end-to-end metric on every workload: read_p99_ms spreads too widely
// from run to run to gate, hotcrp-page writes nothing and has no log,
// and error_ratio is 0 on every passing run. walBefore is the log size
// at the window's start.
func tailMetrics(inst instance, w *window, walBefore int64, emit func(name string, v float64, unit, note string)) {
	all := &w.all
	emit("read_p99_ms", ms(quantile(all.reads, 0.99)), "ms", samples(len(all.reads)))
	emit("write_p50_ms", ms(quantile(all.writes, 0.50)), "ms", samples(len(all.writes)))
	emit("write_p99_ms", ms(quantile(all.writes, 0.99)), "ms", samples(len(all.writes)))
	emit("error_ratio", ratio(float64(all.failed), float64(all.attempted)), "ratio",
		fmt.Sprintf("%d failed of %d attempted", all.failed, all.attempted))
	grown := inst.db().WALSize() - walBefore
	emit("log_bytes_per_write", ratio(float64(grown), float64(len(all.writes))), "bytes",
		fmt.Sprintf("%d log bytes over %d acknowledged writes", grown, len(all.writes)))
}

// runTraced measures the per-layer metrics: counters over an untraced
// window, then timings over a traced window of the same length.
func runTraced(inst instance, measure time.Duration, rep *report) (*window, error) {
	half := measure / 2
	cl := inst.wire()
	stopLag := func() int64 { return 0 }
	if cl != nil {
		stopLag = cl.sampleLag()
	}
	c0 := snapshot(inst)
	w := runWindow(inst, half)
	c1 := snapshot(inst)
	lagMax := stopLag()
	var catchup time.Duration
	if cl != nil {
		var err error
		if catchup, err = cl.catchUp(); err != nil {
			return nil, err
		}
	}

	inst.setTraced(true)
	tw := runWindow(inst, half)
	inst.setTraced(false)

	ops := float64(w.completed())
	reads := float64(len(w.all.reads))
	add := rep.add
	tailMetrics(inst, w, c0.walSize, add)

	add("sqldb.sorts_per_read", ratio(float64(c1.sorts-c0.sorts), reads), "count", "SortCount delta per read")
	add("sqldb.limit_stops_per_read", ratio(float64(c1.limitStops-c0.limitStops), reads), "count", "LimitStopCount delta per read")
	add("sqldb.parses_per_op", ratio(float64(c1.parses-c0.parses), ops), "count", "ParseCount delta per op")
	add("sqldb.lexes_per_op", ratio(float64(c1.lexes-c0.lexes), ops), "count", "TokenizeCount delta per op")
	hits, misses := c1.plan.Hits-c0.plan.Hits, c1.plan.Misses-c0.plan.Misses
	add("sqldb.plan_cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio",
		fmt.Sprintf("%d hits, %d misses", hits, misses))
	add("sqldb.query_us_p50", us(quantile(tw.all.query, 0.5)), "us", "in-process replay of the read, "+samples(len(tw.all.query)))
	add("sqldb.tx_conflict_ratio", ratio(float64(w.all.conflicts), float64(w.all.txAttempts)), "ratio",
		fmt.Sprintf("%d conflicts of %d transaction attempts", w.all.conflicts, w.all.txAttempts))

	add("core.encode_us_per_response", us(mean(tw.all.encode)), "us", "mean EncodeSpans time over a response's tainted cells, "+samples(len(tw.all.encode)))
	add("core.decode_us_per_response", us(mean(tw.all.decode)), "us", "mean DecodeSpans time over the same cells, "+samples(len(tw.all.decode)))
	ih, im := c1.intern.SetHits-c0.intern.SetHits, c1.intern.SetMisses-c0.intern.SetMisses
	add("core.intern_hit_ratio", ratio(float64(ih), float64(ih+im)), "ratio", fmt.Sprintf("%d hits, %d misses", ih, im))
	uh, um := c1.intern.UnionHits-c0.intern.UnionHits, c1.intern.UnionMisses-c0.intern.UnionMisses
	add("core.union_hit_ratio", ratio(float64(uh), float64(uh+um)), "ratio", fmt.Sprintf("%d hits, %d misses", uh, um))
	add("core.intern_flushes", float64(c1.intern.Flushes-c0.intern.Flushes), "count", "generation rotations and union-cache flushes")

	// httpd: the page as Server.Do sees it, with and without RESIN.
	pageP50 := quantile(w.all.pages, 0.5)
	overhead := 0.0
	if b, ok := inst.(baseliner); ok {
		base, err := b.baselinePageP50(half / 2)
		if err != nil {
			return nil, err
		}
		overhead = ratio(float64(pageP50), float64(base))
		info("unmodified page p50 %.4f ms against %.4f ms with RESIN", ms(base), ms(pageP50))
	}
	add("core.tracking_overhead", overhead, "ratio", "page p50 with RESIN / page p50 unmodified (hotcrp-page only)")
	tracedPage := quantile(tw.all.pages, 0.5)
	add("httpd.page_us_p50", us(tracedPage), "us", "Server.Do time, "+samples(len(tw.all.pages)))
	self := 0.0
	if len(tw.all.pages) > 0 {
		self = us(tracedPage - quantile(tw.all.query, 0.5))
	}
	add("httpd.self_us_p50", self, "us", "page time minus sqldb.query_us_p50")

	if err := wireMetrics(cl, tw, add); err != nil {
		return nil, err
	}
	add("wire.replica.lag_bytes_max", float64(lagMax), "bytes", "largest sample of primary log bytes the replica had not applied")
	add("wire.replica.catchup_ms", ms(catchup), "ms", "untraced window end until the replica frontier equals the primary's")
	add("wire.replica.resyncs", float64(c1.resyncs-c0.resyncs), "count", "Replica.Resyncs delta")

	add("process.cpu_us_per_op", ratio(us(c1.cpu-c0.cpu), ops), "us", "getrusage user+system per op")
	add("process.alloc_bytes_per_op", ratio(float64(c1.mem.TotalAlloc-c0.mem.TotalAlloc), ops), "bytes", "")
	add("process.mallocs_per_op", ratio(float64(c1.mem.Mallocs-c0.mem.Mallocs), ops), "count", "")
	add("process.gc_cycles_per_kop", ratio(1000*float64(c1.mem.NumGC-c0.mem.NumGC), ops), "count", "")
	add("process.tracing_overhead", ratio(w.throughput(), tw.throughput()), "ratio",
		fmt.Sprintf("untraced %.1f / traced %.1f ops/s", w.throughput(), tw.throughput()))

	// Both windows count toward the run's attempted and failed ops.
	w.all.merge(&tw.all)
	return w, nil
}

// wireMetrics pairs each client's wire calls with the server spans the
// traced listener recorded for that client's connection, in order.
func wireMetrics(cl *cluster, tw *window, add func(name string, v float64, unit, note string)) error {
	var server, commit, client []time.Duration
	var readBytes, reads, writes int
	if cl != nil {
		for c, r := range tw.clients {
			spans := cl.lis.take(c)
			if len(spans) != len(r.calls) {
				return fmt.Errorf("client %d: %d wire calls but %d server spans", c, len(r.calls), len(spans))
			}
			for i, sp := range spans {
				call := r.calls[i]
				server = append(server, sp.d)
				client = append(client, call.d-sp.d)
				writes += sp.writes
				switch call.kind {
				case kindRead:
					readBytes += sp.bytes
					reads++
				case kindCommit:
					commit = append(commit, sp.d)
				}
			}
		}
	}
	add("sqldb.commit_us_p50", us(quantile(commit, 0.5)), "us", "server span of the Commit request, "+samples(len(commit)))
	add("wire.server_us_p50", us(quantile(server, 0.5)), "us", "frame read to response write, "+samples(len(server)))
	add("wire.server_us_p99", us(quantile(server, 0.99)), "us", samples(len(server)))
	add("wire.client_us_p50", us(quantile(client, 0.5)), "us", "call time minus server span, "+samples(len(client)))
	add("wire.response_bytes_per_read", ratio(float64(readBytes), float64(reads)), "bytes", samples(reads))
	add("wire.socket_writes_per_response", ratio(float64(writes), float64(len(server))), "count", samples(len(server)))
	return nil
}

// warm runs ops operations per client, untimed, so caches and memos
// are filled before the first timed operation. Any failure fails the
// set-up.
func warm(inst instance, ops int) error {
	var wg sync.WaitGroup
	var recs [clients]recorder
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				inst.op(c, &recs[c])
			}
		}(c)
	}
	wg.Wait()
	for c := range recs {
		if recs[c].firstErr != nil {
			return fmt.Errorf("warm-up: %w", recs[c].firstErr)
		}
	}
	return nil
}

// sameState requires the replica to hold exactly the primary's rows
// and annotations for each query, and the primary the given row count
// (-1: any). Rows are compared as a sorted multiset.
func sameState(cl *cluster, queries map[string]int) error {
	for q, want := range queries {
		p, n, err := digest(cl.primary, q)
		if err != nil {
			return fmt.Errorf("primary %s: %w", q, err)
		}
		if want >= 0 && n != want {
			return fmt.Errorf("primary %s: %d rows, want %d", q, n, want)
		}
		r, _, err := digest(cl.rep.DB(), q)
		if err != nil {
			return fmt.Errorf("replica %s: %w", q, err)
		}
		if p != r {
			return fmt.Errorf("%s: replica digest %s differs from primary %s", q, r, p)
		}
	}
	if pf, rf := cl.primary.Frontier(), cl.rep.DB().Frontier(); pf != rf {
		return fmt.Errorf("replica frontier %d, primary %d", rf, pf)
	}
	return nil
}

// digest hashes every row of q's result as its cell values plus each
// text cell's EncodeSpans annotation.
func digest(db *sqldb.DB, q string) (string, int, error) {
	res, err := db.QueryRaw(q)
	if err != nil {
		return "", 0, err
	}
	rows := make([]string, 0, res.Len())
	for _, row := range res.Rows {
		var b strings.Builder
		for _, cell := range row {
			switch {
			case cell.Null:
				b.WriteString("N|")
			case cell.IsInt:
				fmt.Fprintf(&b, "I%d|", cell.Int.Value())
			default:
				ann, err := core.EncodeSpans(cell.Str)
				if err != nil {
					return "", 0, err
				}
				fmt.Fprintf(&b, "S%q%s|", cell.Str.Raw(), ann)
			}
		}
		rows = append(rows, b.String())
	}
	sort.Strings(rows)
	h := sha256.New()
	for _, r := range rows {
		h.Write([]byte(r))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), len(rows), nil
}

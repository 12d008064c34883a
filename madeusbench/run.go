package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"madeus/internal/core"
	"madeus/internal/engine"
	"madeus/internal/tpcw"
	"madeus/internal/wal"
	"madeus/internal/wire"
)

// browserSeed derives browser id's generator seed from the run's seed.
// The three replay legs share the seed of id 10.
func browserSeed(seed int64, id int) int64 { return seed*1000 + int64(id) }

// dialer opens the benchmark's client connections and tracks how many are
// open at once, for the connection guard.
type dialer struct {
	open, peak atomic.Int64
}

type countedClient struct {
	*wire.Client
	d *dialer
}

func (c *countedClient) Close() error {
	c.d.open.Add(-1)
	return c.Client.Close()
}

func (d *dialer) dial(addr string) (*countedClient, error) {
	c, err := wire.Dial(addr, tenant)
	if err != nil {
		return nil, err
	}
	if n := d.open.Add(1); n > d.peak.Load() {
		d.peak.Store(n)
	}
	return &countedClient{c, d}, nil
}

// snap is the counters a phase's per-layer figures are deltas of.
type snap struct {
	at       time.Time
	cpu      time.Duration
	alloc    uint64
	gcs      uint32
	wal      wal.Stats
	db       engine.DBStats
	pcHits   uint64
	pcMisses uint64
}

func takeSnap(s *system) snap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	db := s.db()
	pc := db.ParseCacheStats()
	return snap{
		at:       time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:    ms.TotalAlloc,
		gcs:      ms.NumGC,
		wal:      s.serving().Engine.WALStats(),
		db:       db.Stats(),
		pcHits:   pc.Hits,
		pcMisses: pc.Misses,
	}
}

// hostSteal reads the machine's cumulative steal time from /proc/stat, to
// say how much of a run a virtual machine's host took away.
func hostSteal() (time.Duration, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0, false
	}
	return time.Duration(ticks) * time.Second / 100, true // USER_HZ
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// bench runs one workload: set-up, steady phase, migration phase, the
// traced layer replay when tracing, and the correctness check.
func bench(w *workload, seed int64, total time.Duration, traced bool) (*report, error) {
	r := &report{e2e: map[string]metric{}, layer: map[string]metric{}, correct: true}
	if traced {
		r.tr = &tracer{}
	}
	s, err := setUpRepeatedly(r, w.scale)
	if err != nil {
		return nil, err
	}
	defer s.close()

	var d dialer
	raw := make([]*countedClient, clients)
	defer func() {
		for _, c := range raw {
			if c != nil {
				c.Close()
			}
		}
	}()
	conns := make([]*conn, clients)
	for i := range conns {
		if raw[i], err = d.dial(s.mw.Addr()); err != nil {
			return nil, err
		}
		conns[i] = &conn{inner: raw[i]}
	}
	led, err := newLedger(raw[0])
	if err != nil {
		return nil, err
	}
	for _, k := range conns {
		k.led = led
	}

	steadyDur := time.Duration(float64(total) * steadyPart)
	steadyPhase(r, s, w, seed, conns, steadyDur)
	migrationPhase(r, s, w, seed, conns, total-steadyDur)
	if traced {
		// The replay's direct connection takes the second browser's
		// place, so no more than 2 client connections are ever open.
		raw[1].Close()
		raw[1] = nil
		if err := layerReplay(r, s, w, seed, &d, conns[0], led); err != nil {
			return nil, err
		}
	}
	r.note("client connections: peak %d open at once, limit nproc=%d", d.peak.Load(), runtime.NumCPU())
	if peak := d.peak.Load(); peak > int64(runtime.NumCPU()) {
		r.invalid = append(r.invalid, fmt.Sprintf("%d client connections open at once, over nproc=%d", peak, runtime.NumCPU()))
	}

	// Correctness: the tenant, read through the middleware, must match
	// the ledger exactly.
	diffs, err := led.check(raw[0])
	if err != nil {
		return nil, err
	}
	for i, df := range diffs {
		if i == 10 {
			r.note("ledger: ... %d more", len(diffs)-10)
			break
		}
		r.note("ledger: %s", df)
	}
	r.note("ledger: %d committed orders checked, %d mismatches", led.orders, len(diffs))
	r.attempted++
	if len(diffs) > 0 {
		r.failed++
		r.correct = false
	}

	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.set(r.e2e, "heap_mb", float64(m.HeapAlloc)/(1<<20), "MB")
	if traced {
		r.notes = append(r.notes, r.tr.selfTimes()...)
	}
	return r, nil
}

// setUpRepeatedly boots, provisions and loads the system several times and
// reports the median as setup_s; the last system serves the run.
func setUpRepeatedly(r *report, scale tpcw.Scale) (*system, error) {
	var times []float64
	var s *system
	for i := 0; i < setups; i++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		var err error
		if s, err = setUp(scale); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	r.set(r.e2e, "setup_s", median(times), "s")
	return s, nil
}

// steadyPhase runs the closed loop: one browser per connection, zero think
// time, measured over dur after a warm-up. Traced runs alternate untraced
// and traced slices over the same tenant; the difference between the two
// is the tracing overhead.
func steadyPhase(r *report, s *system, w *workload, seed int64, conns []*conn, dur time.Duration) {
	from := time.Now().Add(warmup)
	till := from.Add(dur)
	ctx, cancel := context.WithCancel(context.Background())
	ebs := make([]*tpcw.EB, len(conns))
	for i, k := range conns {
		k.phase(nil, from, till, r.tr)
		ebs[i] = &tpcw.EB{ID: 1 + i, Mix: w.mix, Scale: w.scale, Seed: browserSeed(seed, 1+i)}
	}
	done := make(chan error, 1)
	go func() { done <- runBrowsers(ctx, conns, ebs) }()
	time.Sleep(time.Until(from))
	s0 := takeSnap(s)
	steal0, stealOK := hostSteal()
	var tracedFor time.Duration
	if r.tr != nil {
		for on := false; time.Now().Before(till); on = !on {
			r.tr.on.Store(on)
			sl := min(traceSlice, time.Until(till))
			time.Sleep(sl)
			if on {
				tracedFor += sl
			}
		}
		r.tr.on.Store(false)
	} else {
		time.Sleep(time.Until(till))
	}
	s1 := takeSnap(s)
	if steal1, ok := hostSteal(); ok && stealOK {
		r.note("host: %.1f%% of CPU time stolen by the hypervisor during the steady window",
			100*(steal1-steal0).Seconds()/(float64(runtime.NumCPU())*s1.at.Sub(s0.at).Seconds()))
	}
	cancel()
	if err := <-done; err != nil {
		r.note("error: steady browsers: %v", err)
	}
	r.tally(conns...)

	var lat, tlat sample
	for _, k := range conns {
		for i, l := range k.out.lat {
			if k.out.traced[i] {
				tlat = append(tlat, l)
			} else {
				lat = append(lat, l)
			}
		}
	}
	txns := float64(len(lat) + len(tlat))
	untracedFor := s1.at.Sub(s0.at) - tracedFor
	r.set(r.e2e, "txn_per_s", float64(len(lat))/untracedFor.Seconds(), "1/s")
	r.percentile("txn", lat)
	r.set(r.e2e, "cpu_us_per_txn", us(s1.cpu-s0.cpu)/txns, "us")
	if r.tr != nil {
		tp50, p50 := tlat.quantile(0.5), lat.quantile(0.5)
		r.note("traced: txn_per_s %.1f txn_p50_ms %.4f (n=%d) against untraced %.1f / %.4f (n=%d)",
			float64(len(tlat))/tracedFor.Seconds(), ms(tp50), len(tlat),
			float64(len(lat))/untracedFor.Seconds(), ms(p50), len(lat))
		r.set(r.layer, "trace.overhead_pct", 100*(ms(tp50)-ms(p50))/ms(p50), "%")
	}
	commits := float64(s1.db.Commits - s0.db.Commits)
	walCommits := float64(s1.wal.Commits - s0.wal.Commits)
	r.set(r.layer, "engine.conflicts_per_ktxn", 1000*ratio(float64(s1.db.Conflicts-s0.db.Conflicts), commits), "count")
	r.set(r.layer, "wal.fsyncs_per_commit", ratio(float64(s1.wal.Fsyncs-s0.wal.Fsyncs), walCommits), "count")
	r.set(r.layer, "wal.records_per_commit", ratio(float64(s1.wal.Records-s0.wal.Records), walCommits), "count")
	hits, misses := float64(s1.pcHits-s0.pcHits), float64(s1.pcMisses-s0.pcMisses)
	r.set(r.layer, "sqlmini.pcache_hit_pct", 100*ratio(hits, hits+misses), "%")
	r.set(r.layer, "go.alloc_kb_per_txn", float64(s1.alloc-s0.alloc)/1024/txns, "KB")
	r.set(r.layer, "go.gc_per_ktxn", 1000*float64(s1.gcs-s0.gcs)/txns, "count")
}

// migrationPhase runs the open loop on the same connections, with fresh
// browsers, while the tenant migrates back and forth for dur.
func migrationPhase(r *report, s *system, w *workload, seed int64, conns []*conn, dur time.Duration) {
	ctx, cancel := context.WithCancel(context.Background())
	sched := newSchedule(time.Now(), w.rate, browserSeed(seed, 0), cancel)
	ebs := make([]*tpcw.EB, len(conns))
	for i, k := range conns {
		k.phase(sched, time.Time{}, time.Time{}, r.tr)
		ebs[i] = &tpcw.EB{ID: 3 + i, Mix: w.mix, Scale: w.scale, Seed: browserSeed(seed, 3+i)}
	}
	if r.tr != nil {
		r.tr.on.Store(true)
		defer r.tr.on.Store(false)
	}
	done := make(chan error, 1)
	go func() { done <- runBrowsers(ctx, conns, ebs) }()
	reps, destFsyncs := migrate(r, s, dur)
	sched.stop()
	if err := <-done; err != nil {
		r.note("error: migration-phase browsers: %v", err)
	}
	r.tally(conns...)

	var lat, late sample
	for _, k := range conns {
		lat = append(lat, k.out.lat...)
		late = append(late, k.out.late...)
	}
	r.percentile("mig_txn", lat)
	var totals []float64
	for _, rep := range reps {
		totals = append(totals, rep.Total().Seconds())
	}
	r.set(r.e2e, "migration_s", median(totals), "s")
	migrationLayers(r, reps)
	r.set(r.layer, "wal.dest_fsyncs_per_commit", median(destFsyncs), "count")
	lateP99 := late.quantile(0.99)
	r.set(r.layer, "gen.late_ms", ms(lateP99), "ms")
	r.note("generator: late p50 %.3f ms p99 %.3f ms (n=%d), limit %v",
		ms(late.quantile(0.5)), ms(lateP99), len(late), lateLimit)
	if lateP99 > lateLimit {
		r.invalid = append(r.invalid, fmt.Sprintf("gen.late_ms p99 %.3f over the %v limit", ms(lateP99), lateLimit))
	}
}

// migrate live-migrates the tenant back and forth until the phase's time
// is spent (at least once), and checks every migration's outcome. It
// returns the completed migrations' reports and each one's destination
// fsyncs per commit.
func migrate(r *report, s *system, phase time.Duration) (reps []*core.Report, destFsyncs []float64) {
	end := time.Now().Add(phase)
	for first := true; first || time.Now().Before(end); first = false {
		src := s.serving()
		dst := s.nodes[0]
		if src == dst {
			dst = s.nodes[1]
		}
		w0 := dst.Engine.WALStats()
		rep, err := s.mw.Migrate(tenant, dst.Name, core.MigrateOptions{})
		w1 := dst.Engine.WALStats()
		r.attempted++
		switch {
		case err != nil || rep.Failed:
			r.failed++
			r.note("error: migration %s -> %s: %v", src.Name, dst.Name, err)
			if rep == nil {
				return reps, destFsyncs // refused outright: retrying cannot help
			}
			continue
		case s.serving() != dst:
			r.failed++
			r.correct = false
			r.note("error: migration to %s left the tenant on %s", dst.Name, s.serving().Name)
			continue
		}
		reps = append(reps, rep)
		destFsyncs = append(destFsyncs, ratio(float64(w1.Fsyncs-w0.Fsyncs), float64(w1.Commits-w0.Commits)))
		if r.tr != nil {
			r.tr.migration(rep)
		}
	}
	return reps, destFsyncs
}

// migrationLayers reports the per-step figures of the run's migrations,
// each the median over the migrations unless named a mean.
func migrationLayers(r *report, reps []*core.Report) {
	var drain, snapshot, restore, propagate, suspend, chunks, peakKB, syncsets, paces []float64
	var ops, sets, groupSum, groups float64
	for _, rep := range reps {
		drain = append(drain, ms(rep.DrainTime))
		snapshot = append(snapshot, ms(rep.SnapshotTime))
		restore = append(restore, ms(rep.RestoreTime))
		propagate = append(propagate, ms(rep.PropagateTime))
		suspend = append(suspend, ms(rep.SuspensionWindow))
		chunks = append(chunks, float64(rep.Chunks))
		peakKB = append(peakKB, float64(rep.PeakTransferBytes)/1024)
		syncsets = append(syncsets, float64(rep.Propagation.Syncsets))
		ops += float64(rep.Propagation.Ops)
		sets += float64(rep.Propagation.Syncsets)
		for _, g := range rep.Propagation.CommitGroups {
			groupSum += float64(g)
			groups++
		}
		n := 0
		for _, e := range rep.Timeline {
			if e.Name != "flow.pace" {
				continue
			}
			for _, f := range e.Fields {
				if f.Key == "delay" && f.Value != "0s" {
					n++
				}
			}
		}
		paces = append(paces, float64(n))
	}
	r.set(r.layer, "core.drain_ms", median(drain), "ms")
	r.set(r.layer, "core.snapshot_ms", median(snapshot), "ms")
	r.set(r.layer, "core.restore_ms", median(restore), "ms")
	r.set(r.layer, "core.propagate_ms", median(propagate), "ms")
	r.set(r.layer, "core.suspend_ms", median(suspend), "ms")
	r.set(r.layer, "core.chunks", median(chunks), "count")
	r.set(r.layer, "core.peak_transfer_kb", median(peakKB), "KB")
	r.set(r.layer, "core.syncsets", median(syncsets), "count")
	r.set(r.layer, "core.ops_per_syncset", ratio(ops, sets), "count")
	r.set(r.layer, "core.commit_group_mean", ratio(groupSum, groups), "count")
	r.set(r.layer, "flow.pace_ticks", median(paces), "count")
	r.note("migrations: %d completed, %d syncsets and %d ops propagated in all", len(reps), int(sets), int(ops))
}

// layerReplay replays one seeded statement stream in-process on the
// serving node's engine, over the wire direct to that node, and through
// the middleware (on mwConn), and times the parser on the same texts.
func layerReplay(r *report, s *system, w *workload, seed int64, d *dialer, mwConn *conn, led *ledger) error {
	node := s.serving()
	sess, err := node.Engine.NewSession(tenant)
	if err != nil {
		return err
	}
	defer sess.Close()
	direct, err := d.dial(node.Addr())
	if err != nil {
		return err
	}
	defer direct.Close()
	legs := [nLegs]*conn{
		legEngine: {inner: sess, led: led},
		legWire:   {inner: direct, led: led},
		legProxy:  mwConn,
	}
	mwConn.phase(nil, time.Time{}, time.Time{}, nil)
	var streams [nLegs][][]string
	for leg := range streams {
		streams[leg] = stream(w.mix, w.scale, 10+leg, browserSeed(seed, 10), w.replay)
	}
	lt := replay(legs, streams, 10)
	r.tally(legs[:]...)
	r.set(r.layer, "engine.stmt_us", lt.stmt, "us")
	r.set(r.layer, "engine.scan_us", lt.scan, "us")
	r.set(r.layer, "engine.commit_us", lt.commit, "us")
	r.set(r.layer, "wire.hop_us", lt.wireHop, "us")
	r.set(r.layer, "core.proxy_hop_us", lt.proxyHop, "us")
	parse, classifyQ := parseTimes(streams[0])
	r.set(r.layer, "sqlmini.parse_us", parse, "us")
	r.set(r.layer, "sqlmini.classify_us", classifyQ, "us")
	r.note("layers: %d statements per leg on %s; point statement median engine %.1f us, +wire %.1f us, +middleware %.1f us",
		lt.stmts, node.Name, lt.stmt, lt.wireHop, lt.proxyHop)
	return nil
}

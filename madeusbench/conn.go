package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"syscall"
	"time"

	"madeus/internal/engine"
	"madeus/internal/metrics"
	"madeus/internal/mvcc"
	"madeus/internal/tpcw"
	"madeus/internal/wire"
)

// errPhaseOver ends a browser at a phase boundary. It wraps wire.ErrConnLost
// so tpcw.EB.Run treats it as a transport stop and, seeing its context
// cancelled, returns nil without sending anything more.
var errPhaseOver = fmt.Errorf("madeusbench: phase over: %w", wire.ErrConnLost)

// isConflict reports a first-updater-wins abort, a correct SI outcome. The
// text match covers both the in-process error and its wire rendering.
func isConflict(err error) bool {
	return err != nil && strings.Contains(err.Error(), mvcc.ErrSerialization.Error())
}

// schedule is the open loop's send schedule, shared by the connections of
// a phase: Poisson arrivals at a fixed mean rate, whoever sends them. The
// gaps are drawn from the run's seed, so the same seed sends on the same
// schedule, and random gaps cannot lock into phase with the program's own
// periodic work (the modelled fsync, the Step-3 poll).
type schedule struct {
	rate   float64
	cancel context.CancelFunc

	mu      sync.Mutex
	rng     *rand.Rand
	next    time.Time
	stopped bool
}

func newSchedule(t0 time.Time, rate float64, seed int64, cancel context.CancelFunc) *schedule {
	return &schedule{rate: rate, cancel: cancel, rng: rand.New(rand.NewSource(seed)), next: t0}
}

// claim takes the next due time; ok is false once the schedule is stopped.
func (s *schedule) claim() (due time.Time, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return time.Time{}, false
	}
	due = s.next
	s.next = s.next.Add(time.Duration(s.rng.ExpFloat64() / s.rate * float64(time.Second)))
	return due, true
}

// stop ends the schedule: no further interaction is sent, and the phase's
// browsers are told to return.
func (s *schedule) stop() {
	s.mu.Lock()
	s.stopped = true
	s.mu.Unlock()
	s.cancel()
}

// outcome is what one connection saw in one phase.
type outcome struct {
	lat       sample          // interaction latencies of committed interactions
	traced    []bool          // per lat entry: was the interaction traced
	late      sample          // open loop: how late a waiting sender woke
	attempted int             // interactions sent
	conflicts int             // first-updater-wins aborts
	failed    int             // transport errors, other server errors, unreadable writes
	errs      []string        // first few failure messages
	stmts     []time.Duration // per statement inner Exec time (replay legs)
}

func (o *outcome) fail(err error) {
	o.failed++
	if len(o.errs) < 5 {
		o.errs = append(o.errs, err.Error())
	}
}

// conn is the tpcw.Execer the benchmark hands a browser. It passes each
// statement to the connection below, and on the way it times interactions,
// paces the open loop, records trace spans, and keeps the ledger from the
// statements and affected-row counts of committed transactions.
//
// A conn is used by one goroutine at a time; the phase fields are set
// between phases, while no browser runs on it.
type conn struct {
	inner tpcw.Execer
	led   *ledger

	// Phase settings.
	sched      *schedule // open loop when set, closed loop otherwise
	from, till time.Time // closed loop: record interactions committed in [from, till)
	tr         *tracer   // nil: untraced
	keepStmts  bool      // record every inner Exec time in out.stmts
	out        outcome

	// Transaction state.
	inTxn   bool
	start   time.Time // BEGIN sent, or the open loop's due time
	traced  bool
	root    uint64 // interaction span
	pending []effect
}

// phase resets the connection's per-phase settings and outcome.
func (k *conn) phase(sched *schedule, from, till time.Time, tr *tracer) {
	k.sched, k.from, k.till, k.tr = sched, from, till, tr
	k.out = outcome{}
}

func (k *conn) Exec(sql string) (*engine.Result, error) {
	if sql == "BEGIN" {
		if err := k.begin(); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	res, err := k.inner.Exec(sql)
	t1 := time.Now()
	if k.keepStmts {
		k.out.stmts = append(k.out.stmts, t1.Sub(t0))
	}
	if k.traced {
		k.tr.add("stmt", k.root, t0, t1)
	}
	if !k.inTxn {
		// ROLLBACK after a failed statement, or a statement outside an
		// interaction: no interaction is open to account for.
		if sql == "ROLLBACK" {
			k.traced = false
		}
		return res, err
	}
	switch {
	case err != nil:
		k.end(t1, false)
		if isConflict(err) {
			k.out.conflicts++
		} else {
			k.out.fail(err)
		}
	case sql == "COMMIT":
		committed := res.Tag == "COMMIT"
		if committed {
			k.led.commit(k.pending)
		} else {
			k.out.fail(fmt.Errorf("COMMIT answered %q", res.Tag))
		}
		k.end(t1, committed)
		k.traced = false
	case sql == "ROLLBACK":
		k.end(t1, false)
		k.traced = false
	default:
		eff, ok, perr := parseEffect(sql, res.Affected)
		if perr != nil {
			k.out.fail(perr)
		} else if ok {
			k.pending = append(k.pending, eff)
		}
	}
	return res, err
}

// begin opens an interaction. In the open loop it first waits for the next
// due time, and the interaction is timed from then.
func (k *conn) begin() error {
	now := time.Now()
	k.start = now
	if k.sched != nil {
		due, ok := k.sched.claim()
		if !ok {
			k.sched.cancel()
			return errPhaseOver
		}
		if due.After(now) {
			sleepUntil(due)
			k.out.late = append(k.out.late, time.Since(due))
		}
		k.start = due
	}
	k.inTxn = true
	k.pending = k.pending[:0]
	k.out.attempted++
	k.traced = k.tr != nil && k.tr.on.Load()
	if k.traced {
		k.root = k.tr.newID()
	}
	return nil
}

// sleepUntil blocks the calling thread in nanosleep until t. Go's own
// timers wake idle processors through the network poller, which rounds
// waits to whole milliseconds; the open loop would then send up to 1 ms
// late, and that lateness would count against every interaction.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// end closes the interaction; committed interactions in the recording
// window add their latency.
func (k *conn) end(at time.Time, committed bool) {
	k.inTxn = false
	k.pending = k.pending[:0]
	if k.traced {
		k.tr.addID(k.root, "interaction", 0, k.start, at)
	}
	if !committed {
		return
	}
	if k.sched == nil && (at.Before(k.from) || !at.Before(k.till)) {
		return
	}
	k.out.lat = append(k.out.lat, at.Sub(k.start))
	k.out.traced = append(k.out.traced, k.traced)
}

// runBrowsers drives one browser per connection until ctx ends, and returns
// the first error a browser stopped with.
func runBrowsers(ctx context.Context, conns []*conn, ebs []*tpcw.EB) error {
	var wg sync.WaitGroup
	errs := make([]error, len(conns))
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = ebs[i].Run(ctx, conns[i], closedRecorder())
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// closedRecorder is the recorder handed to tpcw.EB.Run: closed, so it keeps
// nothing. The benchmark times interactions itself, in conn.
func closedRecorder() *metrics.Recorder {
	r := metrics.NewRecorder()
	r.Close()
	return r
}

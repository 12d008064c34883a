package main

import (
	"context"
	"strings"
	"time"

	"madeus/internal/engine"
	"madeus/internal/sqlmini"
	"madeus/internal/tpcw"
)

// streamRecorder is a tpcw.Execer that answers every statement as an empty
// success and keeps the texts: it turns a seeded browser into its
// statement stream, one []string per interaction (BEGIN through COMMIT).
type streamRecorder struct {
	want   int
	cancel context.CancelFunc
	txns   [][]string
	cur    []string
}

func (r *streamRecorder) Exec(sql string) (*engine.Result, error) {
	r.cur = append(r.cur, sql)
	if sql != "COMMIT" {
		return &engine.Result{Tag: "OK"}, nil
	}
	r.txns = append(r.txns, r.cur)
	r.cur = nil
	if len(r.txns) == r.want {
		r.cancel()
	}
	return &engine.Result{Tag: "COMMIT"}, nil
}

// stream returns the first n interactions browser (id, seed) sends.
// Browsers with the same seed and different ids send the same stream up to
// the keys they own (orders, order lines, cart slots).
func stream(mix tpcw.Mix, scale tpcw.Scale, id int, seed int64, n int) [][]string {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := &streamRecorder{want: n, cancel: cancel}
	eb := &tpcw.EB{ID: id, Mix: mix, Scale: scale, Seed: seed}
	_ = eb.Run(ctx, r, closedRecorder()) // the recorder never fails
	return r.txns
}

// stmtKind classifies a stream statement for the engine metrics.
type stmtKind int

const (
	kindOther  stmtKind = iota // BEGIN, read-only COMMIT
	kindPoint                  // statements addressing rows by key
	kindScan                   // Search and BestSellers
	kindCommit                 // COMMIT of an update interaction
)

func classify(txn []string) []stmtKind {
	kinds := make([]stmtKind, len(txn))
	update := false
	for i, s := range txn {
		switch {
		case s == "BEGIN":
		case s == "COMMIT":
			if update {
				kinds[i] = kindCommit
			}
		case strings.Contains(s, "ORDER BY") || strings.Contains(s, "i_subject ="):
			kinds[i] = kindScan
		default:
			kinds[i] = kindPoint
			if !strings.HasPrefix(s, "SELECT") {
				update = true
			}
		}
	}
	return kinds
}

// legs are the three boundaries one seeded stream is replayed across.
const (
	legEngine = iota // engine.Session.Exec in-process on the serving node
	legWire          // wire.Client.Exec direct to the serving node
	legProxy         // wire.Client.Exec through the middleware
	nLegs
)

// layerTimes are the boundary metrics of one replay, in microseconds.
type layerTimes struct {
	stmt, scan, commit float64 // in-process medians
	wireHop, proxyHop  float64 // median per point statement: wire - engine, proxy - wire
	stmts              int     // statements replayed per leg
}

// replay runs the legs' streams as paired, interleaved repetitions: block
// b of every leg runs back to back, in an order that rotates with b. Every
// leg's Execer is a conn, so its commits enter the ledger.
func replay(legs [nLegs]*conn, streams [nLegs][][]string, blocks int) layerTimes {
	var times [nLegs][]time.Duration
	n := len(streams[0])
	for b := 0; b < blocks; b++ {
		lo, hi := b*n/blocks, (b+1)*n/blocks
		for j := 0; j < nLegs; j++ {
			leg := (b + j) % nLegs
			k := legs[leg]
			k.keepStmts = true
			for _, txn := range streams[leg][lo:hi] {
				for _, s := range txn {
					if _, err := k.Exec(s); err != nil {
						break // counted by the conn as a failure
					}
				}
			}
			k.keepStmts = false
			times[leg] = append(times[leg], k.out.stmts...)
			k.out.stmts = k.out.stmts[:0]
		}
	}
	var kinds []stmtKind
	for _, txn := range streams[0] {
		kinds = append(kinds, classify(txn)...)
	}
	pick := func(leg int, want stmtKind) []time.Duration {
		var d []time.Duration
		for i, t := range times[leg] {
			if i < len(kinds) && kinds[i] == want {
				d = append(d, t)
			}
		}
		return d
	}
	pe, pw, pp := durMedian(pick(legEngine, kindPoint)), durMedian(pick(legWire, kindPoint)), durMedian(pick(legProxy, kindPoint))
	return layerTimes{
		stmt:     us(pe),
		scan:     us(durMedian(pick(legEngine, kindScan))),
		commit:   us(durMedian(pick(legEngine, kindCommit))),
		wireHop:  us(pw - pe),
		proxyHop: us(pp - pw),
		stmts:    len(kinds),
	}
}

// parseTimes times sqlmini.Parse and sqlmini.ClassifyQuery on every
// statement of the stream and returns their medians in microseconds.
func parseTimes(txns [][]string) (parse, classifyQ float64) {
	var p, c []time.Duration
	for _, txn := range txns {
		for _, s := range txn {
			t0 := time.Now()
			_, _ = sqlmini.Parse(s) // every browser statement parses
			t1 := time.Now()
			_, _ = sqlmini.ClassifyQuery(s)
			t2 := time.Now()
			p = append(p, t1.Sub(t0))
			c = append(c, t2.Sub(t1))
		}
	}
	return us(durMedian(p)), us(durMedian(c))
}

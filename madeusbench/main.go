// Command madeusbench is the repository's end-to-end benchmark: TPC-W
// traffic through the Madeus middleware, then live migrations under an
// open loop of the same traffic, checked against an independent ledger.
// See README.md for the workloads, the metrics and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"madeus/internal/tpcw"
)

// workload is one traffic mix and tenant size.
type workload struct {
	name  string
	mix   tpcw.Mix
	scale tpcw.Scale
	// rate is the open loop's fixed interaction rate during migrations,
	// below the steady capacity of two connections on a 2-CPU host.
	rate float64
	// replay is the interactions per leg of the traced layer replay.
	replay int
}

var (
	smallScale = tpcw.Scale{Items: 1000, Customers: 2000, Authors: 250}
	largeScale = tpcw.Scale{Items: 10000, Customers: 20000, Authors: 2500}
)

var workloads = []workload{
	{name: "browse", mix: tpcw.Browsing, scale: smallScale, rate: 300, replay: 600},
	{name: "order", mix: tpcw.Ordering, scale: smallScale, rate: 100, replay: 300},
	{name: "large", mix: tpcw.Shopping, scale: largeScale, rate: 100, replay: 150},
}

// Run shape and steadiness guards.
const (
	clients    = 2                      // client connections carrying load
	setups     = 3                      // set-ups per run; setup_s is their median
	warmup     = time.Second            // closed loop before the steady window
	steadyPart = 0.4                    // share of --seconds in the steady phase
	lateLimit  = 20 * time.Millisecond  // open-loop send lateness (p99) allowed
	traceSlice = 500 * time.Millisecond // traced runs alternate tracing off/on
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload: browse, order or large")
		seed    = flag.Int64("seed", 1, "seed the browsers' generators derive from")
		seconds = flag.Int("seconds", 20, "measured seconds (steady phase + migration phase)")
		trace   = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory for span files")
		commit  = flag.String("commit", "unknown", "source revision, for the header")
	)
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: madeusbench --workload browse|order|large --seed N --seconds N --trace 0|1")
		return 2
	}
	fmt.Printf("header: workload=%s seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		w.name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *commit)

	r, err := bench(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "madeusbench:", err)
		return 1
	}
	r.print(os.Stdout)
	if r.tr != nil {
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-%d.jsonl", w.name, *seed))
		if err := r.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "madeusbench: write spans:", err)
			return 1
		}
		fmt.Println("trace: spans written to", path)
	}
	if len(r.invalid) > 0 {
		fmt.Println("INVALID:", strings.Join(r.invalid, "; "))
		return 3
	}
	res := result{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: r.e2e}
	if *trace == 1 {
		res.Metrics = r.layer
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "madeusbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !r.correct {
		return 1
	}
	return 0
}

// report collects a run's figures and the notes printed beside them.
type report struct {
	correct                      bool
	attempted, failed, conflicts int
	e2e, layer                   map[string]metric
	notes                        []string // human-readable lines
	invalid                      []string // steadiness guards that tripped
	tr                           *tracer
}

func (r *report) set(m map[string]metric, name string, v float64, unit string) {
	m[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// tally adds the connections' phase outcomes to the run's operation counts.
func (r *report) tally(ks ...*conn) {
	for _, k := range ks {
		r.attempted += k.out.attempted
		r.failed += k.out.failed
		r.conflicts += k.out.conflicts
		for _, e := range k.out.errs {
			r.note("error: %s", e)
		}
	}
}

func (r *report) print(f io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintln(f, n)
	}
	for _, group := range []struct {
		label string
		m     map[string]metric
	}{{"metric", r.e2e}, {"layer", r.layer}} {
		names := make([]string, 0, len(group.m))
		for n := range group.m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(f, "%s: %-28s %12.4f %s\n", group.label, n, group.m[n].Value, group.m[n].Unit)
		}
	}
	fmt.Fprintf(f, "operations: attempted=%d failed=%d first-updater-wins conflicts=%d correct=%v\n",
		r.attempted, r.failed, r.conflicts, r.correct)
}

// percentile reports the p50 of s as an end-to-end metric and its p99 with
// the per-layer metrics, with sample counts, and marks the run invalid when
// the p99 has fewer than ten samples beyond it. The p99s are unbounded: on
// a 2-vCPU VM they follow the hypervisor's steal, and moved by up to a
// quarter between sets of runs of the same commit.
func (r *report) percentile(prefix string, s sample) {
	p50, p99 := s.quantile(0.50), s.quantile(0.99)
	r.set(r.e2e, prefix+"_p50_ms", ms(p50), "ms")
	r.set(r.layer, prefix+"_p99_ms", ms(p99), "ms")
	r.note("percentile: %s_p50_ms n=%d beyond=%d; %s_p99_ms n=%d beyond=%d",
		prefix, len(s), s.beyond(0.50), prefix, len(s), s.beyond(0.99))
	if s.beyond(0.99) < 10 {
		r.invalid = append(r.invalid, fmt.Sprintf("%s_p99_ms has %d samples beyond it, want >= 10", prefix, s.beyond(0.99)))
	}
}

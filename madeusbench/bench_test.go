package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"madeus/internal/tpcw"
	"madeus/internal/wire"
)

func TestSameSeedSameStream(t *testing.T) {
	a := stream(tpcw.Ordering, smallScale, 10, browserSeed(7, 10), 200)
	b := stream(tpcw.Ordering, smallScale, 10, browserSeed(7, 10), 200)
	if len(a) != 200 || !reflect.DeepEqual(a, b) {
		t.Fatalf("seed 7 gave two different streams (%d and %d interactions)", len(a), len(b))
	}
	if c := stream(tpcw.Ordering, smallScale, 10, browserSeed(8, 10), 200); reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 gave the same stream")
	}
	// Replay legs share a seed and differ only in the keys they own, so
	// every leg classifies statement for statement alike.
	d := stream(tpcw.Ordering, smallScale, 11, browserSeed(7, 10), 200)
	for i := range a {
		if !reflect.DeepEqual(classify(a[i]), classify(d[i])) {
			t.Fatalf("interaction %d differs in shape between legs: %q vs %q", i, a[i], d[i])
		}
	}
}

func TestLedgerCatchesWriteBehindMiddleware(t *testing.T) {
	s, err := setUp(tpcw.Scale{Items: 50, Customers: 50, Authors: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	c, err := wire.Dial(s.mw.Addr(), tenant)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	led, err := newLedger(c)
	if err != nil {
		t.Fatal(err)
	}
	k := &conn{inner: c, led: led}
	for _, sql := range []string{
		"BEGIN",
		"SELECT i_stock FROM item WHERE i_id = 3",
		"UPDATE item SET i_stock = i_stock - 1 WHERE i_id = 3",
		"INSERT INTO orders (o_id, o_c_id, o_date, o_total, o_status) VALUES (1, 1, 20150531, 10.0, 'pending')",
		"INSERT INTO cart (sc_id, sc_c_id, sc_i_id, sc_qty) VALUES (5, 1, 3, 2)",
		"COMMIT",
	} {
		if _, err := k.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	if diffs, err := led.check(c); err != nil || len(diffs) > 0 {
		t.Fatalf("ledger after committed writes: %v %v", diffs, err)
	}

	sess, err := s.serving().Engine.NewSession(tenant)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Exec("UPDATE item SET i_stock = i_stock - 1 WHERE i_id = 7"); err != nil {
		t.Fatal(err)
	}
	diffs, err := led.check(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 1 {
		t.Fatalf("a write behind the middleware gave %d ledger differences, want 1: %v", len(diffs), diffs)
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the system three times per workload")
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			r, err := bench(w, 1, 2*time.Second, true)
			if err != nil {
				t.Fatal(err)
			}
			if !r.correct || r.failed != 0 || r.attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d\n%v", r.correct, r.attempted, r.failed, r.notes)
			}
			// Every metric BENCHMARK.json names is reported, in its unit;
			// end-to-end metrics are never 0.
			for _, m := range spec.EndToEnd {
				if got := r.e2e[m.Name]; got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("end-to-end %s = %+v, want > 0 %s", m.Name, got, m.Unit)
				}
			}
			for _, m := range spec.PerLayer {
				if got, ok := r.layer[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s = %+v (reported %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			if len(r.e2e) != len(spec.EndToEnd) || len(r.layer) != len(spec.PerLayer) {
				t.Errorf("reported %d end-to-end and %d per-layer metrics, BENCHMARK.json names %d and %d",
					len(r.e2e), len(r.layer), len(spec.EndToEnd), len(spec.PerLayer))
			}
		})
	}
}

package main

import (
	"fmt"
	"strings"
	"sync"

	"madeus/internal/tpcw"
)

// cartRow is one cart slot as the browser last wrote it.
type cartRow struct{ cust, item, qty int64 }

// effect is one write of a transaction that has not committed yet, as the
// browser sent it and as the server counted it (Result.Affected).
type effect struct {
	kind     effectKind
	id       int64
	affected int
	cart     cartRow
}

type effectKind int

const (
	effDecrement  effectKind = iota // UPDATE item SET i_stock = i_stock - 1
	effRestock                      // UPDATE item SET i_stock = i_stock + 21 ... AND i_stock < 10
	effOrder                        // INSERT INTO orders
	effOrderLine                    // INSERT INTO order_line
	effCartDelete                   // DELETE FROM cart WHERE sc_id = ...
	effCartInsert                   // INSERT INTO cart ... VALUES (slot, cust, item, qty)
)

// parseEffect recognises the TPC-W writes the ledger follows. Writes it
// does not follow (AdminUpdate's i_cost) and reads return ok=false. A
// followed write whose text it cannot read is an error: skipping it would
// silently weaken the check.
func parseEffect(sql string, affected int) (effect, bool, error) {
	e := effect{affected: affected}
	var err error
	switch {
	case strings.HasPrefix(sql, "UPDATE item SET i_stock = i_stock - 1 "):
		e.kind = effDecrement
		_, err = fmt.Sscanf(sql, "UPDATE item SET i_stock = i_stock - 1 WHERE i_id = %d", &e.id)
	case strings.HasPrefix(sql, "UPDATE item SET i_stock = i_stock + 21 "):
		e.kind = effRestock
		_, err = fmt.Sscanf(sql, "UPDATE item SET i_stock = i_stock + 21 WHERE i_id = %d", &e.id)
	case strings.HasPrefix(sql, "INSERT INTO orders "):
		e.kind = effOrder
	case strings.HasPrefix(sql, "INSERT INTO order_line "):
		e.kind = effOrderLine
	case strings.HasPrefix(sql, "DELETE FROM cart "):
		e.kind = effCartDelete
		_, err = fmt.Sscanf(sql, "DELETE FROM cart WHERE sc_id = %d", &e.id)
	case strings.HasPrefix(sql, "INSERT INTO cart "):
		e.kind = effCartInsert
		_, err = fmt.Sscanf(sql, "INSERT INTO cart (sc_id, sc_c_id, sc_i_id, sc_qty) VALUES (%d, %d, %d, %d)",
			&e.id, &e.cart.cust, &e.cart.item, &e.cart.qty)
	default:
		return e, false, nil
	}
	if err != nil {
		return e, false, fmt.Errorf("ledger: cannot read %q: %w", sql, err)
	}
	return e, true, nil
}

// ledger is the benchmark's own account of what committed transactions
// did to the tenant, kept from statement texts and affected-row counts
// only. At the end of a run the tenant must match it exactly.
type ledger struct {
	mu         sync.Mutex
	initStock  map[int64]int64
	decrements map[int64]int64
	restocks   map[int64]int64
	orders     int64
	orderLines int64
	cart       map[int64]cartRow
}

// newLedger records the tenant's loaded state: the initial stock of every
// item, read through c.
func newLedger(c tpcw.Execer) (*ledger, error) {
	res, err := c.Exec("SELECT i_id, i_stock FROM item")
	if err != nil {
		return nil, fmt.Errorf("ledger: read initial stock: %w", err)
	}
	l := &ledger{
		initStock:  make(map[int64]int64, len(res.Rows)),
		decrements: make(map[int64]int64),
		restocks:   make(map[int64]int64),
		cart:       make(map[int64]cartRow),
	}
	for _, r := range res.Rows {
		l.initStock[r[0].Int] = r[1].Int
	}
	return l, nil
}

// commit applies one committed transaction's effects in statement order.
func (l *ledger) commit(effs []effect) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range effs {
		switch e.kind {
		case effDecrement:
			l.decrements[e.id] += int64(e.affected)
		case effRestock:
			l.restocks[e.id] += int64(e.affected)
		case effOrder:
			l.orders += int64(e.affected)
		case effOrderLine:
			l.orderLines += int64(e.affected)
		case effCartDelete:
			if e.affected > 0 {
				delete(l.cart, e.id)
			}
		case effCartInsert:
			if e.affected > 0 {
				l.cart[e.id] = e.cart
			}
		}
	}
}

// check reads the tenant through c and returns every difference from the
// ledger (nil when the tenant matches exactly).
func (l *ledger) check(c tpcw.Execer) ([]string, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var diffs []string
	res, err := c.Exec("SELECT i_id, i_stock FROM item")
	if err != nil {
		return nil, fmt.Errorf("ledger: read stock: %w", err)
	}
	if len(res.Rows) != len(l.initStock) {
		diffs = append(diffs, fmt.Sprintf("item: %d rows, loaded %d", len(res.Rows), len(l.initStock)))
	}
	for _, r := range res.Rows {
		id, got := r[0].Int, r[1].Int
		init, ok := l.initStock[id]
		if !ok {
			diffs = append(diffs, fmt.Sprintf("item %d: not loaded", id))
			continue
		}
		if want := init - l.decrements[id] + 21*l.restocks[id]; got != want {
			diffs = append(diffs, fmt.Sprintf("item %d: i_stock %d, ledger %d (initial %d, -%d, +21x%d)",
				id, got, want, init, l.decrements[id], l.restocks[id]))
		}
	}
	for _, q := range []struct {
		table string
		want  int64
	}{{"orders", l.orders}, {"order_line", l.orderLines}} {
		res, err := c.Exec("SELECT COUNT(*) FROM " + q.table)
		if err != nil {
			return nil, fmt.Errorf("ledger: count %s: %w", q.table, err)
		}
		if got := res.Rows[0][0].Int; got != q.want {
			diffs = append(diffs, fmt.Sprintf("%s: %d rows, ledger %d", q.table, got, q.want))
		}
	}
	res, err = c.Exec("SELECT sc_id, sc_c_id, sc_i_id, sc_qty FROM cart")
	if err != nil {
		return nil, fmt.Errorf("ledger: read cart: %w", err)
	}
	if len(res.Rows) != len(l.cart) {
		diffs = append(diffs, fmt.Sprintf("cart: %d slots, ledger %d", len(res.Rows), len(l.cart)))
	}
	for _, r := range res.Rows {
		got := cartRow{r[1].Int, r[2].Int, r[3].Int}
		if want, ok := l.cart[r[0].Int]; !ok || got != want {
			diffs = append(diffs, fmt.Sprintf("cart slot %d: %+v, ledger %+v", r[0].Int, got, want))
		}
	}
	return diffs, nil
}

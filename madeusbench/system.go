package main

import (
	"fmt"
	"time"

	"madeus/internal/cluster"
	"madeus/internal/core"
	"madeus/internal/engine"
	"madeus/internal/flow"
	"madeus/internal/tpcw"
	"madeus/internal/wal"
	"madeus/internal/wire"
)

// tenant is the database name of the benchmark's one tenant.
const tenant = "shop"

// system is the deployment madeusd ships with two -localnode nodes: the
// middleware with flow.DefaultConfig and 64 players, and two in-process
// nodes with group commit behind a modelled 2 ms fsync and an in-memory
// WAL. No statement CPU cost is simulated, so the CPU a run measures is
// the program's own.
type system struct {
	mw    *core.Middleware
	nodes []*cluster.Node
}

func boot() (*system, error) {
	mw, err := core.New(core.Options{Players: 64, Flow: flow.DefaultConfig()})
	if err != nil {
		return nil, err
	}
	s := &system{mw: mw}
	for _, name := range []string{"node0", "node1"} {
		n, err := cluster.NewNode(name, cluster.NodeOptions{
			Engine: engine.Options{
				WAL:         wal.Options{SyncDelay: 2 * time.Millisecond, Mode: wal.GroupCommit},
				LockTimeout: time.Second,
			},
		})
		if err != nil {
			s.close()
			return nil, err
		}
		s.nodes = append(s.nodes, n)
		mw.AddNode(n)
	}
	return s, nil
}

func (s *system) close() {
	s.mw.Close()
	for _, n := range s.nodes {
		n.Close()
	}
}

// serving is the node the tenant is on now.
func (s *system) serving() *cluster.Node {
	t, _ := s.mw.Tenant(tenant)
	b, _ := t.Node()
	for _, n := range s.nodes {
		if n.Name == b.BackendName() {
			return n
		}
	}
	return nil
}

// db is the tenant's database on the serving node.
func (s *system) db() *engine.Database {
	d, _ := s.serving().Engine.Database(tenant)
	return d
}

// setUp boots the system, provisions the tenant on node0 and loads it
// through the middleware.
func setUp(scale tpcw.Scale) (*system, error) {
	s, err := boot()
	if err != nil {
		return nil, err
	}
	if err := s.mw.ProvisionTenant(tenant, "node0"); err != nil {
		s.close()
		return nil, err
	}
	c, err := wire.Dial(s.mw.Addr(), tenant)
	if err != nil {
		s.close()
		return nil, err
	}
	defer c.Close()
	if err := tpcw.Load(c, scale); err != nil {
		s.close()
		return nil, fmt.Errorf("load: %w", err)
	}
	return s, nil
}

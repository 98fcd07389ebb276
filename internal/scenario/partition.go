package scenario

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/hybridmig/hybridmig/internal/cluster"
	"github.com/hybridmig/hybridmig/internal/flow"
	"github.com/hybridmig/hybridmig/internal/metrics"
	"github.com/hybridmig/hybridmig/internal/sim"
	"github.com/hybridmig/hybridmig/internal/strategy"
	"github.com/hybridmig/hybridmig/internal/trace"
)

// This file is the component-parallel kernel (WithParallel): a partition
// planner that proves — conservatively — that a scenario decomposes into
// independent fabric components, a sharded runner that simulates each
// component as an independent sub-run on its own sim.Engine, and a
// deterministic merge of the per-shard Results.
//
// The planner's contract is soundness, not completeness: whenever it returns
// a plan, the sharded run's Result agrees with the serial kernel field by
// field; whenever it cannot prove independence it returns nil and Run falls
// back to the serial kernel. The differential equivalence suite
// (parallel_equiv_test.go) pins the first half of that contract.

// shardPlan is one connected component of the scenario: the global node ids
// it owns (ascending; the position is the component-local node index) and
// the VMs, migrations, faults and traffic assigned to it, pre-remapped to
// local node indices.
type shardPlan struct {
	nodes      []int
	vms        []int // global VM indices, ascending declaration order
	migrations []Migration
	faults     []FaultSpec
	traffic    []TrafficSpec
}

// partitionPlan is the full decomposition: the shards in order of their
// smallest node, and every sharded node's index within its shard (local;
// nodes of components without VMs belong to no shard).
//
// Fabric-degrade faults belong to shard 0, which installs their capacity
// schedule and emits their trace events; the other shards carry no replica.
// None is needed: the planner admits a fabric-degrade scenario only when the
// headroom test holds at the lowest degrade factor, so the switch link is
// transparent in every shard at every capacity step and its capacity changes
// no flow's rate.
type partitionPlan struct {
	shards []shardPlan
	local  []int
}

// planPartition decides whether the scenario decomposes into ≥ 2 independent
// components and builds the plan; byName is resolve's name→index map. It
// returns nil — serial fallback — when any coupling channel between node
// groups could exist:
//
//   - campaigns and CM1 observe global state (admission control samples the
//     cluster-wide network; CM1 ranks exchange halos across all VMs);
//   - shared-storage strategies (precopy, pvfs-shared, multiattach) route
//     I/O through the cluster-wide PFS servers, and they alone take leases
//     and open the reconciler windows a partition fault acts on. Without
//     them a partition is a NIC blackout on one node, which its shard owns
//     like a link degradation;
//   - without preseeded images, boot reads and base fetches hit the striped
//     repository spanning all nodes;
//   - a switch fabric that could saturate arbitrates bandwidth globally. The
//     headroom test nodes*NIC <= fabric*minDegradeFactor is sufficient: if the
//     fabric ever bound under progressive filling, every flow's fabric share
//     would undercut its NIC share, so the fabric's full capacity would be
//     both allocated and strictly less than itself — a contradiction;
//   - a fault or traffic stream on a component without VMs would lose its
//     trace events in a sharded run;
//   - fewer than two components hold VMs.
//
// Within the surviving scenarios, two nodes couple only when a migration or
// a traffic stream connects them; union-find over those edges yields the
// components.
func (s *Scenario) planPartition(cfg cluster.Config, byName map[string]int) *partitionPlan {
	if s.opt.cm1 != nil || len(s.campaigns) > 0 || !cfg.Manager.Preseeded {
		return nil
	}
	for _, v := range s.vms {
		if def, ok := strategy.Lookup(string(v.Approach)); !ok || def.Traits.SharedStorage {
			return nil
		}
	}
	minFactor := 1.0
	for _, f := range s.opt.faults {
		if f.Kind == FaultFabricDegrade && f.Factor < minFactor {
			minFactor = f.Factor
		}
	}
	if float64(cfg.Nodes)*cfg.Testbed.NICBandwidth > cfg.Testbed.FabricBandwidth*minFactor {
		return nil
	}

	uf := newUnionFind(cfg.Nodes)
	for _, m := range s.migrations {
		uf.union(s.vms[byName[m.VM]].Node, m.Dst)
	}
	for _, t := range s.opt.traffic {
		uf.union(t.Src, t.Dst)
	}
	// shard maps a component's root to its plan shard, -1 for a component
	// without VMs. A root is its component's smallest node, so one ascending
	// pass numbers the shards by smallest node and gives each node its
	// local index, its rank among its shard's nodes.
	shard := make([]int, cfg.Nodes)
	for n := range shard {
		shard[n] = -1
	}
	for _, v := range s.vms {
		shard[uf.find(v.Node)] = 0 // has VMs: numbered in the pass below
	}
	plan := &partitionPlan{local: make([]int, cfg.Nodes)}
	for n := range shard {
		r := uf.find(n)
		if r == n && shard[n] == 0 {
			shard[n] = len(plan.shards)
			plan.shards = append(plan.shards, shardPlan{})
		}
		if gi := shard[r]; gi >= 0 {
			sp := &plan.shards[gi]
			plan.local[n] = len(sp.nodes)
			sp.nodes = append(sp.nodes, n)
		}
	}
	if len(plan.shards) < 2 {
		return nil
	}
	shardOf := func(node int) int { return shard[uf.find(node)] }

	for i, v := range s.vms {
		sp := &plan.shards[shardOf(v.Node)]
		sp.vms = append(sp.vms, i)
	}
	for _, m := range s.migrations {
		sp := &plan.shards[shardOf(s.vms[byName[m.VM]].Node)]
		m.Dst = plan.local[m.Dst]
		sp.migrations = append(sp.migrations, m)
	}
	// Fault lists keep declaration order per shard: faults at equal times
	// fire in declaration order, a documented contract.
	for _, f := range s.opt.faults {
		gi := 0 // fabric-degrade faults
		switch f.Kind {
		case FaultDestCrash, FaultDeadline:
			gi = shardOf(s.vms[byName[f.VM]].Node)
		case FaultLinkDegrade, FaultPartition:
			if gi = shardOf(f.Node); gi < 0 {
				return nil
			}
			f.Node = plan.local[f.Node]
		}
		plan.shards[gi].faults = append(plan.shards[gi].faults, f)
	}
	for _, t := range s.opt.traffic {
		gi := shardOf(t.Src)
		if gi < 0 {
			return nil
		}
		t.Src, t.Dst = plan.local[t.Src], plan.local[t.Dst]
		plan.shards[gi].traffic = append(plan.shards[gi].traffic, t)
	}
	return plan
}

// subScenario builds the component-local scenario for plan shard i: the
// shard's VMs on renumbered nodes, its slice of the migration plan, faults
// and traffic, and the parent's run options with the configuration narrowed
// to the shard's nodes, no parallelism (a shard never re-shards) and no seed
// capture (regenerated on the merged Result). shared, when non-nil, is the
// mutex-serialized adapter over the caller's observers.
func (s *Scenario) subScenario(cfg cluster.Config, plan *partitionPlan, i int, shared trace.Observer) *Scenario {
	sp := &plan.shards[i]
	sub := &Scenario{opt: s.opt, migrations: sp.migrations}
	cfg.Nodes = len(sp.nodes)
	sub.opt.config = &cfg
	sub.opt.faults, sub.opt.traffic = sp.faults, sp.traffic
	sub.opt.observers = nil
	if shared != nil {
		sub.opt.observers = []trace.Observer{&shardObserver{nodes: sp.nodes, shared: shared}}
	}
	sub.opt.parallel, sub.opt.seedCapture = false, false
	for _, vi := range sp.vms {
		v := s.vms[vi]
		v.Node = plan.local[v.Node]
		sub.vms = append(sub.vms, v)
	}
	return sub
}

// runSharded executes the plan: every component is an independent sub-run,
// and the shards never synchronize. Each shard's whole lifecycle (build,
// drain, collect, release) runs inside its worker, so peak memory is bounded
// by the worker count rather than the shard count — what keeps 10,000-VM
// campaigns at paper fidelity feasible. The per-shard Results and errors are
// merged deterministically by shard index.
// check, when non-nil, is RunContext's cancellation poll; it is installed on
// every shard engine so a cancel interrupts all shards promptly.
func (s *Scenario) runSharded(cfg cluster.Config, plan *partitionPlan, check func() bool) (*Result, error) {
	workers := s.opt.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var shared trace.Observer
	if len(s.opt.observers) > 0 {
		shared = &lockedObservers{obs: s.opt.observers}
	}
	n := len(plan.shards)
	results := make([]*Result, n)
	errs := make([]error, n)
	ForEach(n, workers, func(i int) {
		results[i], errs[i] = s.runShard(cfg, plan, i, shared, check)
	})
	return s.mergeShardResults(cfg, plan, results), mergeShardErrors(errs, s.opt.horizon)
}

// runShard runs one component start to finish in isolation.
func (s *Scenario) runShard(cfg cluster.Config, plan *partitionPlan, i int, shared trace.Observer, check func() bool) (*Result, error) {
	sub := s.subScenario(cfg, plan, i, shared)
	subCfg, set, byName, err := sub.resolve()
	if err != nil {
		return nil, err
	}
	return sub.drain(subCfg, set, byName, check)
}

// mergeShardResults folds the per-shard Results into one global Result:
// VMs return to declaration order with node indices mapped back to global
// ids, per-tag traffic is summed in shard order (the one place parallel
// results can differ from serial, by float association — far below the
// equivalence suite's 1e-6 tolerance), and the clock is the latest shard
// clock, which equals the serial drain time since the last event of the run
// happens in some shard.
func (s *Scenario) mergeShardResults(cfg cluster.Config, plan *partitionPlan, results []*Result) *Result {
	res := &Result{
		VMs:       make([]VMResult, len(s.vms)),
		Campaigns: make([]*metrics.Campaign, 0),
		Traffic:   make(map[string]float64, flow.NumTags),
		Config:    cfg,
	}
	for i, r := range results {
		if r == nil {
			continue
		}
		if r.Clock > res.Clock {
			res.Clock = r.Clock
		}
		sp := &plan.shards[i]
		for j := range r.VMs {
			vr := r.VMs[j]
			vr.Node = sp.nodes[vr.Node]
			res.VMs[sp.vms[j]] = vr
		}
	}
	for _, t := range flow.Tags() {
		var sum float64
		for _, r := range results {
			if r != nil {
				sum += r.Traffic[t.String()]
			}
		}
		res.Traffic[t.String()] = sum
	}
	if s.opt.seedCapture {
		res.SeedCapture = res.capture()
	}
	return res
}

// mergeShardErrors folds per-shard drain errors deterministically: the first
// non-deadline error by shard index wins; deadline errors merge into one
// (earliest stuck event, summed pending work).
func mergeShardErrors(errs []error, horizon float64) error {
	var merged *sim.DeadlineError
	for _, err := range errs {
		if err == nil {
			continue
		}
		de, ok := err.(*sim.DeadlineError)
		if !ok {
			return err
		}
		if merged == nil {
			merged = &sim.DeadlineError{Horizon: sim.Time(horizon), Next: de.Next}
		} else if de.Next < merged.Next {
			merged.Next = de.Next
		}
		merged.Pending += de.Pending
		merged.Live += de.Live
	}
	if merged == nil {
		return nil
	}
	return merged
}

// shardObserver translates shard-local node identifiers in emitted events
// back to the scenario's global node ids before forwarding to the shared
// serialized observer, so a sharded run's trace reads identically to the
// serial one. Node ids surface in three places: migration-requested
// destinations and partition faults' nodes (Value), and NIC/disk link names
// ("node<i>.in" etc. in Detail).
type shardObserver struct {
	nodes  []int // local node index -> global node id
	shared trace.Observer
}

// OnEvent implements trace.Observer.
func (s *shardObserver) OnEvent(e trace.Event) {
	switch {
	case e.Kind == trace.KindMigrationRequested,
		e.Kind == trace.KindFaultInjected && e.Detail == FaultPartition.String():
		if i := int(e.Value); i >= 0 && i < len(s.nodes) {
			e.Value = float64(s.nodes[i])
		}
	case e.Kind == trace.KindLinkCapacity:
		e.Detail = s.globalLinkName(e.Detail)
	}
	s.shared.OnEvent(e)
}

// globalLinkName rewrites a fabric link name's node index to the global id;
// names without one (the switch fabric) pass through untouched.
func (s *shardObserver) globalLinkName(name string) string {
	rest, ok := strings.CutPrefix(name, "node")
	if !ok {
		return name
	}
	dot := strings.IndexByte(rest, '.')
	if dot < 0 {
		return name
	}
	i, err := strconv.Atoi(rest[:dot])
	if err != nil || i < 0 || i >= len(s.nodes) {
		return name
	}
	return fmt.Sprintf("node%d%s", s.nodes[i], rest[dot:])
}

// lockedObservers serializes event delivery from concurrently draining
// shards into the caller's observers: OnEvent callbacks are never invoked
// concurrently, and each observer sees every shard's events in that shard's
// virtual-time order. The global interleaving across shards is merge-ordered
// — not sorted by virtual time — which is the documented observer contract
// under WithParallel (DESIGN.md §16).
type lockedObservers struct {
	mu  sync.Mutex
	obs []trace.Observer
}

// OnEvent implements trace.Observer.
func (l *lockedObservers) OnEvent(e trace.Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, o := range l.obs {
		o.OnEvent(e)
	}
}

// ForEach runs fn(i) for every i in [0, n), at most workers at a time;
// workers <= 1 runs the calls in order on the calling goroutine. Indices are
// claimed from a shared counter, so completion order is arbitrary: callers
// write results into index-addressed slots, never append. A panicking call
// stops its worker; once the other workers have drained the remaining
// indices, the first panic (by worker) is re-raised in the caller, so a
// panic surfaces exactly as in a serial loop instead of crashing the
// process from a worker goroutine.
func ForEach(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	panics := make([]any, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() { panics[w] = recover() }()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}(w)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// unionFind is a plain disjoint-set forest over node indices.
type unionFind struct{ parent []int }

func newUnionFind(n int) *unionFind {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &unionFind{parent: p}
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]] // path halving
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		if rb < ra {
			ra, rb = rb, ra
		}
		u.parent[rb] = ra // smaller root wins: component ids are stable
	}
}

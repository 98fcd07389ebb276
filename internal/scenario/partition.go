package scenario

import (
	"errors"
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
	local      map[int]int // global node id -> local index
	vms        []int       // global VM indices, ascending declaration order
	migrations []Migration
	faults     []FaultSpec
	traffic    []TrafficSpec
}

// partitionPlan is the full decomposition. Fabric-degrade faults belong to
// shard 0, which installs their capacity schedule and emits their trace
// events; the other shards carry no replica. None is needed: the planner
// admits a fabric-degrade scenario only when the headroom test holds at the
// lowest degrade factor, so the switch link is transparent in every shard at
// every capacity step and its capacity changes no flow's rate.
type partitionPlan struct {
	shards []shardPlan
}

// planPartition decides whether the scenario decomposes into ≥ 2 independent
// components and builds the plan. It returns nil — serial fallback — when any
// coupling channel between node groups could exist:
//
//   - campaigns and CM1 observe global state (admission control samples the
//     cluster-wide network; CM1 ranks exchange halos across all VMs);
//   - shared-storage strategies (precopy, pvfs-shared) route every VM's I/O
//     through the cluster-wide PFS servers;
//   - without preseeded images, boot reads and base fetches hit the striped
//     repository spanning all nodes;
//   - a switch fabric that could saturate arbitrates bandwidth globally. The
//     headroom test nodes*NIC <= fabric*minDegradeFactor is sufficient: if the
//     fabric ever bound under progressive filling, every flow's fabric share
//     would undercut its NIC share, so the fabric's full capacity would be
//     both allocated and strictly less than itself — a contradiction.
//
// Within the surviving scenarios, two nodes couple only when a migration or
// a traffic stream connects them; union-find over those edges yields the
// components.
func (s *Scenario) planPartition(cfg cluster.Config) *partitionPlan {
	if s.opt.cm1 != nil || len(s.campaigns) > 0 {
		return nil
	}
	for _, v := range s.vms {
		if def, ok := strategy.Lookup(string(v.Approach)); !ok || def.Traits.SharedStorage {
			return nil
		}
	}
	if !cfg.Manager.Preseeded {
		return nil
	}
	// Partition faults couple every shard through the attachment manager:
	// the lease reconciler's reachability probe is global state, so such
	// scenarios stay serial.
	for _, f := range s.opt.faults {
		if f.Kind == FaultPartition {
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

	byName := make(map[string]int, len(s.vms))
	for i, v := range s.vms {
		byName[v.Name] = i
	}
	uf := newUnionFind(cfg.Nodes)
	for _, m := range s.migrations {
		uf.union(s.vms[byName[m.VM]].Node, m.Dst)
	}
	for _, t := range s.opt.traffic {
		uf.union(t.Src, t.Dst)
	}

	// Raw components over all nodes, ordered by smallest member node.
	groupOf := make(map[int]int)
	var raw []shardPlan
	for n := 0; n < cfg.Nodes; n++ {
		r := uf.find(n)
		gi, ok := groupOf[r]
		if !ok {
			gi = len(raw)
			groupOf[r] = gi
			raw = append(raw, shardPlan{local: make(map[int]int)})
		}
		raw[gi].local[n] = len(raw[gi].nodes)
		raw[gi].nodes = append(raw[gi].nodes, n)
	}
	shardOf := func(node int) int { return groupOf[uf.find(node)] }

	for i, v := range s.vms {
		gi := shardOf(v.Node)
		raw[gi].vms = append(raw[gi].vms, i)
	}
	for _, m := range s.migrations {
		gi := shardOf(s.vms[byName[m.VM]].Node)
		m.Dst = raw[gi].local[m.Dst]
		raw[gi].migrations = append(raw[gi].migrations, m)
	}
	// Fault owners: a raw shard index, or -1 for the fabric-degrade faults,
	// which go to plan shard 0.
	owner := make([]int, len(s.opt.faults))
	for fi, f := range s.opt.faults {
		switch f.Kind {
		case FaultDestCrash, FaultDeadline:
			owner[fi] = shardOf(s.vms[byName[f.VM]].Node)
		case FaultLinkDegrade:
			owner[fi] = shardOf(f.Node)
		default:
			owner[fi] = -1
		}
	}
	trafficOwner := make([]int, len(s.opt.traffic))
	for ti, t := range s.opt.traffic {
		trafficOwner[ti] = shardOf(t.Src)
	}

	// Keep only components with VMs; a component carrying faults or traffic
	// but no VM would lose its trace events in a sharded run, so such
	// scenarios stay serial.
	kept := make([]int, 0, len(raw)) // raw indices of surviving shards
	keptIdx := make([]int, len(raw)) // raw index -> plan shard index
	for gi := range raw {
		keptIdx[gi] = -1
		if len(raw[gi].vms) > 0 {
			keptIdx[gi] = len(kept)
			kept = append(kept, gi)
		}
	}
	for _, gi := range owner {
		if gi >= 0 && keptIdx[gi] < 0 {
			return nil
		}
	}
	for _, gi := range trafficOwner {
		if keptIdx[gi] < 0 {
			return nil
		}
	}
	if len(kept) < 2 {
		return nil
	}

	plan := &partitionPlan{shards: make([]shardPlan, len(kept))}
	for pi, gi := range kept {
		plan.shards[pi] = raw[gi]
	}
	// Fault lists preserve declaration order per shard (faults at equal times
	// fire in declaration order, a documented contract); the fabric-degrade
	// faults join shard 0, which owns their trace emission.
	for fi, f := range s.opt.faults {
		gi := owner[fi]
		if gi < 0 {
			plan.shards[0].faults = append(plan.shards[0].faults, f)
			continue
		}
		pi := keptIdx[gi]
		if f.Kind == FaultLinkDegrade {
			f.Node = plan.shards[pi].local[f.Node]
		}
		plan.shards[pi].faults = append(plan.shards[pi].faults, f)
	}
	for ti, t := range s.opt.traffic {
		pi := keptIdx[trafficOwner[ti]]
		sp := &plan.shards[pi]
		t.Src, t.Dst = sp.local[t.Src], sp.local[t.Dst]
		sp.traffic = append(sp.traffic, t)
	}
	return plan
}

// subScenario builds the component-local scenario for plan shard i: the
// shard's VMs on renumbered nodes, its slice of the migration plan, faults
// and traffic, and the parent's run options minus parallelism (a shard never
// re-shards) and seed capture (regenerated on the merged Result). shared,
// when non-nil, is the mutex-serialized adapter over the caller's observers.
func (s *Scenario) subScenario(cfg cluster.Config, plan *partitionPlan, i int, shared trace.Observer) *Scenario {
	sp := &plan.shards[i]
	subCfg := cfg
	subCfg.Nodes = len(sp.nodes)
	opts := []Option{
		WithScale(s.opt.scale),
		WithConfig(subCfg),
		WithHorizon(s.opt.horizon),
		WithRetry(s.opt.retry),
	}
	if shared != nil {
		opts = append(opts, WithObserver(&shardObserver{nodes: sp.nodes, shared: shared}))
		if s.opt.sampleEvery > 0 {
			opts = append(opts, WithSampleInterval(s.opt.sampleEvery))
		}
	}
	if len(sp.faults) > 0 {
		opts = append(opts, WithFaults(sp.faults...))
	}
	if len(sp.traffic) > 0 {
		opts = append(opts, WithBackgroundTraffic(sp.traffic...))
	}
	sub := New(opts...)
	for _, vi := range sp.vms {
		v := s.vms[vi]
		v.Node = sp.local[v.Node]
		sub.AddVM(v)
	}
	for _, m := range sp.migrations {
		sub.migrations = append(sub.migrations, m)
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
	c2, set2, byName2, err := sub.resolve()
	if err != nil {
		return nil, err
	}
	ss := sub.build(c2, set2, byName2)
	if check != nil {
		ss.tb.Eng.SetInterrupt(interruptStride, check)
	}
	runErr := ss.tb.Eng.Drain(sub.opt.horizon)
	ss.tb.Eng.Shutdown()
	if errors.As(runErr, new(*sim.ProcPanicError)) {
		return nil, runErr
	}
	return sub.collect(ss.tb, ss.insts, ss.runners, ss.cm1, ss.campaigns), runErr
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
// serial one: migration-requested destinations (Value) and NIC/disk link
// names ("node<i>.in" etc. in Detail) are the two places node ids surface.
type shardObserver struct {
	nodes  []int // local node index -> global node id
	shared trace.Observer
}

// OnEvent implements trace.Observer.
func (s *shardObserver) OnEvent(e trace.Event) {
	switch e.Kind {
	case trace.KindMigrationRequested:
		if i := int(e.Value); i >= 0 && i < len(s.nodes) {
			e.Value = float64(s.nodes[i])
		}
	case trace.KindLinkCapacity:
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

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"github.com/hybridmig/hybridmig/internal/cluster"
	"github.com/hybridmig/hybridmig/internal/experiments"
	"github.com/hybridmig/hybridmig/internal/flow"
	"github.com/hybridmig/hybridmig/internal/scenario"
)

// A workload is one named set of inputs. Each one puts most of the host
// time into a different layer of the simulator, so a change to one layer
// moves one workload and is predicted flat on another (README.md has the
// measured CPU shares).
type workload struct {
	name  string
	setup func(o setupOpts) (*plan, error)
	// refsAnySeed marks a workload whose seed only reorders its runs, so
	// the seed-1 reference digests hold at every seed.
	refsAnySeed bool
}

var workloads = []workload{
	{"campaign-ior", setupCampaign, false},
	{"fig4-pvfs", setupFig4, false},
	{"fig5-cm1", setupFig5, false},
	{"fleet-1k", setupFleet, false},
	{"migsimd-closed-loop", setupService, true},
}

func lookupWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// setupOpts carries what a workload's setup needs: the seed that shapes its
// inputs, the smoke switch (small scale, one cell), and the recorders that
// exist only in the traced run.
type setupOpts struct {
	smoke bool
	rng   *rand.Rand // nil for seed 1, which reproduces the experiment cells
	seed  uint64
	tally *tally   // trace-bus and result counts; nil when untraced
	spans *spanLog // per-call spans; nil when untraced
}

func newSetupOpts(seed uint64, smoke bool) setupOpts {
	o := setupOpts{smoke: smoke, seed: seed}
	if seed != 1 {
		o.rng = rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	}
	return o
}

// offset draws a start-time shift of up to a quarter of one workload cycle;
// zero at seed 1. A shift changes every event interleaving after it while
// keeping the amount of work within a few percent of seed 1's.
func (o setupOpts) offset(cycle float64) float64 {
	if o.rng == nil {
		return 0
	}
	return cycle / 4 * o.rng.Float64()
}

// scenarioOpts returns the options every traced cell gets: the counting
// observer on the trace bus.
func (o setupOpts) scenarioOpts(opts ...scenario.Option) []scenario.Option {
	if o.tally != nil {
		opts = append(opts, scenario.WithObserver(o.tally))
	}
	return opts
}

// plan is a set-up workload: execute runs one measured pass and returns one
// record per simulation run.
type plan struct {
	execute func() []runRecord
	close   func()
}

// runRecord is one simulation run of a pass, as the child reports it.
type runRecord struct {
	Name   string  `json:"name"`
	Ms     float64 `json:"ms"`
	Digest string  `json:"digest,omitempty"`
	Err    string  `json:"err,omitempty"`
}

// cell is one scenario of a batch workload plus the completeness check its
// experiment driver applies.
type cell struct {
	name  string
	sc    *scenario.Scenario
	check func(*scenario.Result) error
}

// batchPlan validates every cell (part of set-up) and returns the plan that
// runs them in order.
func batchPlan(o setupOpts, cells []cell) (*plan, error) {
	for _, c := range cells {
		start := time.Now()
		if err := c.sc.Validate(); err != nil {
			return nil, fmt.Errorf("cell %s: %w", c.name, err)
		}
		o.spans.record("scenario.validate", c.name, start)
	}
	execute := func() []runRecord {
		recs := make([]runRecord, len(cells))
		for i, c := range cells {
			start := time.Now()
			res, err := c.sc.Run()
			recs[i] = runRecord{Name: c.name, Ms: msSince(start)}
			o.spans.record("scenario.run", c.name, start)
			if err == nil {
				err = c.check(res)
			}
			if err != nil {
				recs[i].Err = err.Error()
				continue
			}
			recs[i].Digest = digestResult(res)
			o.tally.addResult(res)
		}
		return recs
	}
	return &plan{execute: execute, close: func() {}}, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// digestResult hashes the hex-float rendering of what a run measured:
// virtual clock, per-VM migration outcome and time, per-tag traffic and the
// CM1 runtime. Equal digests mean bit-identical results.
func digestResult(r *scenario.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "clock %x\n", r.Clock)
	for i := range r.VMs {
		v := &r.VMs[i]
		fmt.Fprintf(h, "vm %s %t %x\n", v.Name, v.Migrated, v.MigrationTime)
	}
	for _, t := range flow.Tags() {
		fmt.Fprintf(h, "traffic %s %x\n", t, r.Traffic[t.String()])
	}
	if r.CM1 != nil {
		fmt.Fprintf(h, "cm1 %x %d\n", r.CM1.Runtime, r.CM1.Intervals)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// migrated fails a run whose first n VMs did not all finish migrating.
func migrated(n int) func(*scenario.Result) error {
	return func(r *scenario.Result) error {
		for i := 0; i < n; i++ {
			if !r.VMs[i].Migrated {
				return fmt.Errorf("migration of %s incomplete", r.VMs[i].Name)
			}
		}
		return nil
	}
}

// localStrategies are the four local-storage approaches of the paper.
var localStrategies = []cluster.Approach{cluster.OurApproach, cluster.Mirror, cluster.Postcopy, cluster.Precopy}

func setupCampaign(o setupOpts) (*plan, error) { return batchPlan(o, campaignCells(o)) }

// campaignCells builds experiments.RunCampaignOne's small-scale cells: 8 IOR
// VMs (16 at paper scale costs 14x the host time with the same profile), two
// migrations packed per destination, every strategy under every policy. The
// seed shifts each campaign's start by up to a quarter of an IOR write+read
// cycle.
func campaignCells(o setupOpts) []cell {
	s := scenario.ScaleSmall
	n := experiments.CampaignVMs(s)
	approaches, pols := localStrategies, experiments.CampaignPolicies(s, n)
	if o.smoke {
		approaches, pols = approaches[:1], pols[:1]
	}
	var cells []cell
	for _, a := range approaches {
		for _, pol := range pols {
			set := scenario.NewSetup(s, n+(n+1)/2)
			ior := set.IOR
			ior.Iterations = 30
			cycle := 2 * float64(ior.FileSize) / set.Cluster.Testbed.DiskBandwidth
			sc := scenario.New(o.scenarioOpts(scenario.WithConfig(set.Cluster))...)
			steps := make([]scenario.Step, n)
			for i := 0; i < n; i++ {
				name := fmt.Sprintf("vm%02d", i)
				sc.AddVM(scenario.VMSpec{Name: name, Node: i, Approach: a, Workload: scenario.IOR(&ior)})
				steps[i] = scenario.Step{VM: name, Dst: n + i/2}
			}
			sc.Campaign(set.Warmup+o.offset(cycle), pol, steps...)
			cells = append(cells, cell{name: string(a) + "/" + pol.Name(), sc: sc, check: migrated(n)})
		}
	}
	return cells
}

// Fig. 4's pvfs-shared row keeps the paper's testbed and AsyncWR parameters
// but shortens the warm-up and the measurement window (100 s and 180 s in
// the paper) so the five cells fit one pass; the allocator profile is the
// same (flow ~93% of CPU either way).
const (
	fig4Warmup = 10.0
	fig4Window = 20.0
)

func setupFig4(o setupOpts) (*plan, error) { return batchPlan(o, fig4Cells(o)) }

// fig4Cells builds 30 AsyncWR VMs on pvfs-shared with k of them migrating
// at once. The seed shifts the migrations' start by up to a quarter of an
// AsyncWR compute period. At smoke size the cell is experiments.RunFig4's
// small-scale pvfs-shared cell at k=3.
func fig4Cells(o setupOpts) []cell {
	s, sources, ks := scenario.ScalePaper, 30, []int{0, 1, 10, 20, 30}
	warmup, window := fig4Warmup, fig4Window
	if o.smoke {
		s, sources, ks = scenario.ScaleSmall, 6, []int{3}
	}
	var cells []cell
	for _, k := range ks {
		set := scenario.NewSetup(s, 2*sources)
		if o.smoke {
			warmup, window = set.Warmup, set.Horizon
		}
		at := warmup + o.offset(set.AsyncWR.ComputeTime)
		sc := scenario.New(o.scenarioOpts(scenario.WithConfig(set.Cluster))...)
		for i := 0; i < sources; i++ {
			sc.AddVM(scenario.VMSpec{
				Name: fmt.Sprintf("vm%02d", i), Node: i, Approach: cluster.PVFSShared,
				Workload: scenario.AsyncWR(&set.AsyncWR, warmup+window),
			})
		}
		for j := 0; j < k; j++ {
			sc.MigrateAt(fmt.Sprintf("vm%02d", j), sources+j, at)
		}
		cells = append(cells, cell{name: fmt.Sprintf("pvfs-shared/k=%d", k), sc: sc, check: migrated(k)})
	}
	return cells
}

func setupFig5(o setupOpts) (*plan, error) { return batchPlan(o, fig5Cells(o)) }

// fig5Cells builds Fig. 5's rightmost column: 64 CM1 ranks, 7 successive
// migrations, one cell per local-storage strategy (the cells of
// experiments.RunFig5 at m=7; at smoke size its small-scale our-approach
// cell at m=3). The seed shifts each migration by up to a quarter of a CM1
// compute interval.
func fig5Cells(o setupOpts) []cell {
	s, m, approaches := scenario.ScalePaper, 7, localStrategies
	if o.smoke {
		s, m, approaches = scenario.ScaleSmall, 3, approaches[:1]
	}
	var cells []cell
	for _, a := range approaches {
		set := scenario.NewSetup(s, 0)
		ranks := set.CM1.Procs
		set.Cluster.Nodes = ranks + m
		sc := scenario.New(o.scenarioOpts(scenario.WithConfig(set.Cluster),
			scenario.WithCM1(set.CM1), scenario.WithHorizon(1e7))...)
		for i := 0; i < ranks; i++ {
			sc.AddVM(scenario.VMSpec{Name: fmt.Sprintf("rank%02d", i), Node: i, Approach: a})
		}
		for k := 0; k < m; k++ {
			at := set.Gap*float64(k+1) + o.offset(set.CM1.ComputePerIntvl)
			sc.MigrateAt(fmt.Sprintf("rank%02d", k), ranks+k, at)
		}
		intervals := set.CM1.Intervals
		check := func(r *scenario.Result) error {
			if err := migrated(m)(r); err != nil {
				return err
			}
			if r.CM1 == nil || r.CM1.Intervals != intervals {
				return errors.New("CM1 did not finish every interval")
			}
			return nil
		}
		cells = append(cells, cell{name: fmt.Sprintf("%s/m=%d", a, m), sc: sc, check: check})
	}
	return cells
}

// setupFleet builds 1,000 idle preseeded VMs, two per source node,
// migrating across disjoint node pairs on the parallel kernel with 2
// workers: the shape of cmd/benchreport's 10k-VM smoke at a tenth of its
// size. No experiment driver builds this cell; its seed-1 reference digest
// pins it. The fabric is widened past the planner's transparency bound so
// every pair is its own shard. The serial kernel is not run: at 10k VMs it
// needs ~5 GB of heap. The seed shifts each VM's migration by up to a
// quarter of its one-second stagger slot.
func setupFleet(o setupOpts) (*plan, error) {
	pairs := 500
	if o.smoke {
		pairs = 10
	}
	nodes := 2 * pairs
	set := scenario.NewSetup(scenario.ScalePaper, nodes)
	set.Cluster.Testbed.FabricBandwidth = 2 * float64(nodes) * set.Cluster.Testbed.NICBandwidth
	sc := scenario.New(o.scenarioOpts(scenario.WithConfig(set.Cluster),
		scenario.WithPreseededImages(), scenario.WithParallel(2))...)
	warmup := set.Cluster.Experiment.WarmupDelay
	for p := 0; p < pairs; p++ {
		for v := 0; v < 2; v++ {
			name := fmt.Sprintf("vm%d-%d", p, v)
			sc.AddVM(scenario.VMSpec{Name: name, Node: 2 * p, Approach: cluster.OurApproach})
			sc.MigrateAt(name, 2*p+1, warmup+float64(p%50)+float64(v)+o.offset(1))
		}
	}
	return batchPlan(o, []cell{{name: fmt.Sprintf("fleet/%d-vms", 2*pairs), sc: sc, check: migrated(2 * pairs)}})
}

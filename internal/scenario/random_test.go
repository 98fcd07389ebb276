package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"github.com/hybridmig/hybridmig/internal/cluster"
	"github.com/hybridmig/hybridmig/internal/flow"
	"github.com/hybridmig/hybridmig/internal/sched"
	"github.com/hybridmig/hybridmig/internal/strategy"
)

// TestRandomScenarioInvariants is the randomized invariant harness: a
// seeded generator builds random scenarios — VM mixes, timed plans and
// campaigns, fault and traffic schedules, retry budgets — and every run is
// checked against the properties that must hold for ANY scenario:
//
//   - determinism: the same seed re-runs to a bit-identical SeedCapture;
//   - terminality: every planned migration ends terminal — completed, or
//     exhausted retries with the VM still at its source;
//   - byte conservation per migration tag: the wire bytes the network
//     accounted equal what the final attempts installed plus what the
//     aborted attempts wasted;
//   - sanity: no negative traffic, wasted bytes only where aborts happened,
//     retries within budget.
//
// CI runs the fixed seed matrix 1..8 under -race; HYBRIDMIG_SEEDS raises
// the count for soak runs.
func TestRandomScenarioInvariants(t *testing.T) {
	seeds := 8
	if s := os.Getenv("HYBRIDMIG_SEEDS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			seeds = n
		}
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			s1, plan := randomScenario(seed)
			res1, err := s1.Run()
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			checkScenarioInvariants(t, res1, plan)

			s2, _ := randomScenario(seed)
			res2, err := s2.Run()
			if err != nil {
				t.Fatalf("seed %d rerun: %v", seed, err)
			}
			if res1.SeedCapture != res2.SeedCapture {
				t.Fatalf("seed %d not deterministic:\n--- run1\n%s\n--- run2\n%s",
					seed, res1.SeedCapture, res2.SeedCapture)
			}
		})
	}
}

// planInfo records what the generator scheduled, for the terminality check.
type planInfo struct {
	migrated map[string]bool // VM -> has a planned migration
	maxTries int
}

// randomScenario builds one scenario from the seed. All randomness is drawn
// from the seeded source, so the same seed always builds the same scenario.
func randomScenario(seed int64) (*Scenario, planInfo) {
	rng := rand.New(rand.NewSource(seed))
	nodes := 4 + rng.Intn(3)
	set := NewSetup(ScaleSmall, nodes)
	nVMs := 2 + rng.Intn(3)

	retry := RetrySpec{MaxAttempts: 2 + rng.Intn(2), Backoff: 0.5 + rng.Float64()}
	opts := []Option{WithConfig(set.Cluster), WithSeedCapture(), WithRetry(retry)}

	// Sample across the full strategy registry (not a hard-coded list), so
	// every registered strategy — including ones linked in purely through
	// the registration path, like adaptive — faces the randomized invariants.
	var approaches []cluster.Approach
	for _, n := range strategy.Names() {
		approaches = append(approaches, cluster.Approach(n))
	}
	names := make([]string, nVMs)
	specs := make([]VMSpec, nVMs)
	for i := range specs {
		names[i] = fmt.Sprintf("vm%d", i)
		var wl WorkloadSpec
		switch rng.Intn(3) {
		case 0:
			wl = Rewrite(nil)
		case 1:
			p := set.IOR
			p.Iterations = 8 + rng.Intn(12)
			wl = IOR(&p)
		default:
			// idle guest
		}
		specs[i] = VMSpec{
			Name:     names[i],
			Node:     i % nodes,
			Approach: approaches[rng.Intn(len(approaches))],
			Workload: wl,
		}
	}

	// Faults: up to two, always inside the horizon. Degradation windows on
	// the same link must not overlap (validation rejects that), so the
	// generator drops a colliding window instead of scheduling it.
	warmup := 2 + rng.Float64()*3
	var faults []FaultSpec
	overlaps := func(f FaultSpec) bool {
		for _, g := range faults {
			if g.Kind != f.Kind || (f.Kind == FaultLinkDegrade && g.Node != f.Node) {
				continue
			}
			if f.At < g.At+g.Duration && g.At < f.At+f.Duration {
				return true
			}
		}
		return false
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			faults = append(faults, FaultSpec{Kind: FaultDestCrash,
				VM: names[rng.Intn(nVMs)], At: warmup + rng.Float64()*5})
		case 1:
			faults = append(faults, FaultSpec{Kind: FaultDeadline,
				VM: names[rng.Intn(nVMs)], At: warmup + rng.Float64()*8})
		case 2:
			f := FaultSpec{Kind: FaultLinkDegrade,
				Node: rng.Intn(nodes), At: warmup + rng.Float64()*3,
				Factor: 0.2 + rng.Float64()*0.6, Duration: 1 + rng.Float64()*4}
			if !overlaps(f) {
				faults = append(faults, f)
			}
		default:
			f := FaultSpec{Kind: FaultFabricDegrade,
				At:     warmup + rng.Float64()*3,
				Factor: 0.3 + rng.Float64()*0.5, Duration: 1 + rng.Float64()*4}
			if !overlaps(f) {
				faults = append(faults, f)
			}
		}
	}
	if len(faults) > 0 {
		opts = append(opts, WithFaults(faults...))
	}

	// Background traffic: up to two generators.
	var traffic []TrafficSpec
	for i, n := 0, rng.Intn(3); i < n; i++ {
		src := rng.Intn(nodes)
		dst := (src + 1 + rng.Intn(nodes-1)) % nodes
		start := rng.Float64() * 3
		traffic = append(traffic, TrafficSpec{
			Src: src, Dst: dst, Start: start, Stop: start + 5 + rng.Float64()*15,
			Rate: float64(10+rng.Intn(40)) * 1e6,
		})
	}
	if len(traffic) > 0 {
		opts = append(opts, WithBackgroundTraffic(traffic...))
	}

	s := New(opts...)
	for _, v := range specs {
		s.AddVM(v)
	}

	plan := planInfo{migrated: map[string]bool{}, maxTries: retry.MaxAttempts}
	if rng.Intn(2) == 0 {
		// Timed plan: each VM migrates once, staggered.
		for i, v := range specs {
			dst := (v.Node + 1 + rng.Intn(nodes-1)) % nodes
			s.MigrateAt(v.Name, dst, warmup+float64(i)*rng.Float64()*2)
			plan.migrated[v.Name] = true
		}
	} else {
		// One campaign over a random subset (at least one VM).
		pols := []sched.Policy{sched.AllAtOnce{}, sched.Serial{}, sched.BatchedK{K: 2}}
		var steps []Step
		for _, v := range specs {
			if rng.Intn(3) != 0 {
				dst := (v.Node + 1 + rng.Intn(nodes-1)) % nodes
				steps = append(steps, Step{VM: v.Name, Dst: dst})
				plan.migrated[v.Name] = true
			}
		}
		if len(steps) == 0 {
			dst := (specs[0].Node + 1) % nodes
			steps = append(steps, Step{VM: specs[0].Name, Dst: dst})
			plan.migrated[specs[0].Name] = true
		}
		s.Campaign(warmup, pols[rng.Intn(len(pols))], steps...)
	}
	return s, plan
}

// checkScenarioInvariants asserts the cross-scenario properties on one run.
func checkScenarioInvariants(t *testing.T, res *Result, plan planInfo) {
	t.Helper()
	// Sanity: traffic counters are non-negative (a negative rate or
	// capacity anywhere would eventually show up here or hang the run).
	for tag, b := range res.Traffic {
		if b < 0 {
			t.Errorf("negative traffic %v for tag %s", b, tag)
		}
	}

	// Terminality: every planned migration is terminal, and only fault
	// victims report waste.
	for i := range res.VMs {
		v := &res.VMs[i]
		if plan.migrated[v.Name] {
			if !v.Migrated && !v.Exhausted {
				t.Errorf("VM %s neither migrated nor exhausted", v.Name)
			}
		} else if v.Migrated {
			t.Errorf("VM %s migrated without a plan entry", v.Name)
		}
		if v.Migrated && v.Exhausted {
			t.Errorf("VM %s both migrated and exhausted", v.Name)
		}
		if v.Retries > plan.maxTries-1 {
			t.Errorf("VM %s retries %d exceed budget %d", v.Name, v.Retries, plan.maxTries-1)
		}
		if v.Aborts == 0 && v.AbortedBytes != 0 {
			t.Errorf("VM %s wasted %v bytes without an abort", v.Name, v.AbortedBytes)
		}
		// Fenced aborts can be zero-byte: a lease re-acquisition that fails
		// before any data moves still counts as an aborted attempt.
		if v.Aborts > 0 && v.AbortedBytes <= 0 && v.Fenced == 0 {
			t.Errorf("VM %s aborted %d times but wasted nothing", v.Name, v.Aborts)
		}
	}

	// Byte conservation over the migration tags: what the network accounted
	// must equal what final attempts moved plus what aborted attempts
	// wasted. Exhausted VMs contribute only waste (their last attempt's
	// bytes are inside AbortedBytes).
	tagged := res.Traffic[flow.TagMemory.String()] +
		res.Traffic[flow.TagBlockMig.String()] +
		res.Traffic[flow.TagStoragePush.String()] +
		res.Traffic[flow.TagStoragePull.String()] +
		res.Traffic[flow.TagMirror.String()]
	var want float64
	for i := range res.VMs {
		v := &res.VMs[i]
		if v.Migrated {
			want += v.MemoryBytes + v.BlockBytes + v.Core.WireBytes()
		}
		want += v.AbortedBytes
	}
	slack := 1e-6*math.Max(tagged, want) + 4096
	if math.Abs(tagged-want) > slack {
		t.Errorf("byte conservation violated: tags carry %.1f, attempts account %.1f (diff %.1f)",
			tagged, want, tagged-want)
	}
}

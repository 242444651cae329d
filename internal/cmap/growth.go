package cmap

// The growth rule. A shard doubles while its stash is still nearly
// empty: the paper's Section 3 fluid limit, capped at a bucket's slots
// with the overflow sent to the stash (fluid.StashCurve), predicts how
// many pairs a shard of N buckets stashes at each load, and the rule
// grows the shard before that prediction comes near the stash-pressure
// trigger. The same function presizes a map for a known pair count
// (BucketsFor), so a loader that starts at the presized geometry never
// resizes.

import (
	"math"
	"sort"
	"sync"

	"repro/internal/fluid"
	"repro/internal/numeric"
)

// stepsPerPair is the stash table's resolution in RK4 steps per unit of
// the model's time, one pair per bucket. A table covers loads 0 to 1,
// slots pairs per bucket, in no fewer than 1024 steps.
const stepsPerPair = 256

// stashCurves memoizes fluid.StashCurve per (d, slots): every map of one
// shape shares one solve.
var stashCurves struct {
	sync.Mutex
	m map[[2]int][]float64
}

// stashCurve returns the capped fluid limit's stashed pairs per bucket
// at load k/(len−1), for k = 0..len−1.
func stashCurve(d, slots int) []float64 {
	stashCurves.Lock()
	defer stashCurves.Unlock()
	key := [2]int{d, slots}
	c, ok := stashCurves.m[key]
	if !ok {
		c = fluid.StashCurve(d, slots, stepsPerPair*max(4, slots))
		if stashCurves.m == nil {
			stashCurves.m = make(map[[2]int][]float64)
		}
		stashCurves.m[key] = c
	}
	return c
}

// growthRule is the watermark W(N) of one map shape: the highest load
// at which a shard of N buckets is predicted to stash at most a quarter
// of its stash-pressure trigger, capped at MaxLoadFactor. A shard's
// stash count is close to Poisson: at a mean of 6, a quarter of a
// 32-entry stash's trigger of 24, the trigger fires with probability
// ~2.5e-8 (at half the trigger, ~1.5e-3).
type growthRule struct {
	stash   []float64 // stashCurve(d, slots)
	slots   int
	maxLoad float64
	budget  float64 // predicted stashed pairs a shard may reach
}

// newGrowthRule returns the rule for cfg, whose StashPerShard default
// and MaxLoadFactor > 0 the caller has already settled.
func newGrowthRule(cfg Config) *growthRule {
	return &growthRule{
		stash:   stashCurve(cfg.D, cfg.SlotsPerBucket),
		slots:   cfg.SlotsPerBucket,
		maxLoad: cfg.MaxLoadFactor,
		budget:  float64(stashTrigger(cfg.StashPerShard)) / 4,
	}
}

// stashTrigger is the stash length at which stash pressure doubles a
// shard: three quarters of its capacity, rounded up.
func stashTrigger(stashCap int) int { return (3*stashCap + 3) / 4 }

// watermark returns W(buckets), interpolating the stash table linearly
// between its grid loads.
func (g *growthRule) watermark(buckets int) float64 {
	perBucket := g.budget / float64(buckets)
	s := g.stash
	k := sort.Search(len(s), func(i int) bool { return s[i] > perBucket })
	if k == len(s) {
		return g.maxLoad // never stashes that much, even full
	}
	frac := (perBucket - s[k-1]) / (s[k] - s[k-1]) // s[0] == 0, so k >= 1
	return min(g.maxLoad, (float64(k-1)+frac)/float64(len(s)-1))
}

// limit returns the most pairs a settled shard of buckets buckets holds
// before it grows: ⌊W(N)·N·slots⌋. It is nondecreasing in buckets.
func (g *growthRule) limit(buckets int) int {
	return int(g.watermark(buckets) * float64(buckets*g.slots))
}

// grownBuckets is the bucket count a shard of n buckets grows to: 2n
// for a power of two, otherwise the smallest prime at least 2n. Either
// way hashes.Deriver derives its candidates on a fast path, never in
// the coprime remix loop a composite non-power-of-two count needs.
func grownBuckets(n int) int {
	if numeric.IsPowerOfTwo(uint64(n)) {
		return 2 * n
	}
	return int(numeric.NextPrime(uint64(2 * n)))
}

// busiestShard is the pair count the busiest of shards shards is
// presized for when pairs spread over them at random: the mean plus
// five binomial standard deviations, a count any one shard exceeds with
// probability below 3e-7.
func busiestShard(pairs, shards int) int {
	mean := float64(pairs) / float64(shards)
	sd := math.Sqrt(mean * (1 - 1/float64(shards)))
	return int(math.Ceil(mean + 5*sd))
}

// BucketsFor returns the buckets per shard a map built from cfg starts
// at to hold pairs entries with no resize: cfg.BucketsPerShard when its
// watermark already holds the busiest shard's share of them, otherwise
// the smallest prime bucket count whose watermark W(N) does (prime n is
// the paper's own setting). Each shard then loads to at most W(N), where
// the fluid limit predicts a quarter of the stash-pressure trigger, so
// neither the watermark nor stash pressure fires while the pairs load.
// A loader that knows its record count up front starts here and places
// every record once. With growth disabled it is cfg.BucketsPerShard.
func BucketsFor(cfg Config, pairs int) int {
	b := cfg.BucketsPerShard
	if cfg.MaxLoadFactor <= 0 || b <= 0 || cfg.SlotsPerBucket <= 0 || cfg.Shards < 0 ||
		cfg.D <= 0 || cfg.D > maxD || cfg.StashPerShard < 0 {
		return b
	}
	if cfg.StashPerShard == 0 {
		cfg.StashPerShard = defaultStash
	}
	g := newGrowthRule(cfg)
	need := busiestShard(pairs, shardCount(cfg.Shards))
	if need <= g.limit(b) {
		return b
	}
	n := b + sort.Search(math.MaxUint32-b, func(i int) bool { return g.limit(b+i) >= need })
	p := int(numeric.NextPrime(uint64(n)))
	for p <= math.MaxUint32 && g.limit(p) < need {
		p = int(numeric.NextPrime(uint64(p + 1)))
	}
	return p
}

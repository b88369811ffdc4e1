package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/stats"
	"repro/internal/xrand"
)

// games is the Table II game set every workload draws from, in the fixed
// order set-up uses.
var games = []string{"doom3", "fear", "hl2", "riddick", "wolf"}

// Stream tags keep the generators independent of one another while all
// of them derive from the one --seed.
const (
	streamOrder   = 0x6f72646572 // "order"
	streamArrival = 0x6172726976 // "arriv"
	streamZipf    = 0x7a697066   // "zipf"
	// popularitySeed fixes which catalog specs are popular: the seed sets
	// request order and arrival times, never the catalog's popularity.
	popularitySeed = 0x706f70756c6172 // "popular"
)

// roundOrder yields the frame workloads' game order: each call returns a
// fresh seeded permutation of games, so every complete round renders each
// game exactly once and the game mix is the same at every seed.
type roundOrder struct{ rng *xrand.Rand }

func newRoundOrder(seed uint64) *roundOrder {
	return &roundOrder{rng: xrand.New(seed ^ streamOrder)}
}

func (o *roundOrder) next() []string {
	out := append([]string(nil), games...)
	for i := len(out) - 1; i > 0; i-- {
		j := o.rng.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// arrivals returns n open-loop due times at a fixed rate over span: due
// time i is drawn uniformly within the i-th of n equal slots, so the rate
// holds over any stretch of the window while the seed sets the exact
// times.
func arrivals(seed uint64, n int, span time.Duration) []time.Duration {
	rng := xrand.New(seed ^ streamArrival)
	slot := float64(span) / float64(n)
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration((float64(i) + rng.Float64()) * slot)
	}
	return out
}

// popularity is the fixed Zipf popularity of an n-entry catalog: rank[k]
// is the catalog index of popularity rank k+1, drawn with weight
// 1/(k+1)^s. The ranking comes from popularitySeed, never from --seed.
type popularity struct {
	rank   []int
	weight []float64 // by rank, summing to 1
}

func newPopularity(n int, s float64) popularity {
	p := popularity{rank: make([]int, n), weight: make([]float64, n)}
	var sum float64
	for k := range p.weight {
		p.weight[k] = 1 / math.Pow(float64(k+1), s)
		sum += p.weight[k]
	}
	for k := range p.weight {
		p.weight[k] /= sum
	}
	rng := xrand.New(popularitySeed)
	for i := range p.rank {
		p.rank[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		p.rank[i], p.rank[j] = p.rank[j], p.rank[i]
	}
	return p
}

// counts returns how often each catalog index is requested among m
// requests: largest-remainder rounding of m times each weight.
func (p popularity) counts(m int) map[int]int {
	type quota struct {
		k    int
		frac float64
	}
	byRank := make([]int, len(p.weight))
	rest := make([]quota, len(p.weight))
	left := m
	for k, w := range p.weight {
		q := float64(m) * w
		byRank[k] = int(q)
		left -= byRank[k]
		rest[k] = quota{k, q - float64(byRank[k])}
	}
	sort.SliceStable(rest, func(i, j int) bool { return rest[i].frac > rest[j].frac })
	for i := 0; i < left; i++ {
		byRank[rest[i].k]++
	}
	out := map[int]int{}
	for k, c := range byRank {
		if c > 0 {
			out[p.rank[k]] = c
		}
	}
	return out
}

// requests returns m catalog indices with the counts above, in a seeded
// order. The multiset, and so the number of distinct specs, is the same
// at every seed. The specs requested once (the first touches, once the
// rest is cached) are spread one to each of equal strata of the sequence,
// so they arrive at a steady rate; the seed sets which spec goes where.
func (p popularity) requests(seed uint64, m int) []int {
	counts := p.counts(m)
	var once, repeated []int
	for _, idx := range p.rank {
		switch c := counts[idx]; {
		case c == 1:
			once = append(once, idx)
		case c > 1:
			for ; c > 0; c-- {
				repeated = append(repeated, idx)
			}
		}
	}
	rng := xrand.New(seed ^ streamZipf)
	shuffle(rng, once)
	shuffle(rng, repeated)
	out := make([]int, m)
	taken := make([]bool, m)
	for j, idx := range once {
		lo, hi := j*m/len(once), (j+1)*m/len(once)
		pos := lo + rng.Intn(hi-lo)
		out[pos], taken[pos] = idx, true
	}
	for i := range out {
		if !taken[i] {
			out[i], repeated = repeated[0], repeated[1:]
		}
	}
	return out
}

func shuffle(rng *xrand.Rand, v []int) {
	for i := len(v) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		v[i], v[j] = v[j], v[i]
	}
}

// summary holds the percentiles the benchmark reports for one sample set,
// computed with internal/stats.
type summary struct {
	n        int
	p50, p90 float64
}

func summarize(samples []float64) summary {
	var d stats.Distribution
	for _, v := range samples {
		d.Observe(v)
	}
	return summary{n: d.N(), p50: d.Percentile(50), p90: d.Percentile(90)}
}

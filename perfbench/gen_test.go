package main

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/stats"
)

func TestRoundOrderDeterministicPerSeed(t *testing.T) {
	rounds := func(seed uint64) [][]string {
		o := newRoundOrder(seed)
		var out [][]string
		for i := 0; i < 6; i++ {
			out = append(out, o.next())
		}
		return out
	}
	a, b := rounds(7), rounds(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different orders:\n%v\n%v", a, b)
	}
	if reflect.DeepEqual(a, rounds(8)) {
		t.Fatal("seeds 7 and 8 gave the same orders")
	}
	for _, r := range a {
		got := append([]string(nil), r...)
		sort.Strings(got)
		if !reflect.DeepEqual(got, games) {
			t.Fatalf("round %v is not a permutation of %v", r, games)
		}
	}
}

func TestArrivalsDeterministicPerSeed(t *testing.T) {
	const n, span = 200, 10 * time.Second
	a, b := arrivals(3, n, span), arrivals(3, n, span)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different arrivals")
	}
	if reflect.DeepEqual(a, arrivals(4, n, span)) {
		t.Fatal("seeds 3 and 4 gave the same arrivals")
	}
	if len(a) != n {
		t.Fatalf("got %d arrivals, want %d", len(a), n)
	}
	slot := span / n
	for i, d := range a {
		if d < time.Duration(i)*slot || d >= time.Duration(i+1)*slot {
			t.Fatalf("arrival %d = %v outside its slot [%v, %v)", i, d, time.Duration(i)*slot, time.Duration(i+1)*slot)
		}
	}
}

func TestZipfRequestsDeterministicPerSeed(t *testing.T) {
	pop := newPopularity(140, zipfS)
	a := pop.requests(11, 240)
	if !reflect.DeepEqual(a, pop.requests(11, 240)) {
		t.Fatal("same seed, different requests")
	}
	b := pop.requests(12, 240)
	if reflect.DeepEqual(a, b) {
		t.Fatal("seeds 11 and 12 gave the same order")
	}
	// Popularity is fixed and the seed only reorders: both seeds request
	// the same multiset.
	if !reflect.DeepEqual(newPopularity(140, zipfS).rank, pop.rank) {
		t.Fatal("popularity ranking is not fixed")
	}
	sa, sb := append([]int(nil), a...), append([]int(nil), b...)
	sort.Ints(sa)
	sort.Ints(sb)
	if !reflect.DeepEqual(sa, sb) {
		t.Fatal("seeds 11 and 12 requested different multisets")
	}
	counts := map[int]int{}
	for _, k := range a {
		if k < 0 || k >= 140 {
			t.Fatalf("request %d outside the catalog", k)
		}
		counts[k]++
	}
	if len(a) != 240 || counts[pop.rank[0]] <= counts[pop.rank[20]] {
		t.Fatalf("%d requests; rank 1 requested %d times, rank 21 %d times",
			len(a), counts[pop.rank[0]], counts[pop.rank[20]])
	}
	// The specs requested once are spread one to each stratum.
	var once []int
	for i, k := range a {
		if counts[k] == 1 {
			once = append(once, i)
		}
	}
	for j, pos := range once {
		if lo, hi := j*240/len(once), (j+1)*240/len(once); pos < lo || pos >= hi {
			t.Fatalf("single request %d at position %d, outside stratum [%d, %d)", j, pos, lo, hi)
		}
	}
}

func TestSummarizeUsesInternalStats(t *testing.T) {
	samples := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10, 12, 11}
	var d stats.Distribution
	for _, v := range samples {
		d.Observe(v)
	}
	s := summarize(samples)
	if s.n != len(samples) || s.p50 != d.Percentile(50) || s.p90 != d.Percentile(90) {
		t.Fatalf("summarize = %+v, stats.Distribution p50 %v p90 %v", s, d.Percentile(50), d.Percentile(90))
	}
}

func TestCovered(t *testing.T) {
	span := [2]float64{0, 100}
	ivs := [][2]float64{{50, 70}, {10, 30}, {20, 40}, {90, 120}}
	if got := covered(span, ivs); got != 60 {
		t.Fatalf("covered = %v, want 60", got)
	}
}

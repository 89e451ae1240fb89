package main

import (
	"crypto/sha256"
	"math/rand"
	"sort"
	"time"
)

// probeRefMS is the probe's time on the host the benchmark was tuned on
// (the 2-vCPU Xeon KVM guest of workloads.json). It only scales
// normalised rates back to trials per second; a comparison of two
// commits does not depend on it.
const probeRefMS = 2.0

// probeReps is how many probes make one reading; their median resists
// a single probe being preempted.
const probeReps = 3

// The probe's fixed inputs and scratch, made once, so that a probe
// allocates nothing and leaves the allocation metrics alone.
var (
	probeBuf  = make([]byte, 1<<17)
	probeKeys = func() []int {
		r := rand.New(rand.NewSource(1))
		xs := make([]int, 1<<14)
		for i := range xs {
			xs[i] = r.Int()
		}
		return xs
	}()
	probeSorted = make([]int, len(probeKeys))
	probeMap    = make(map[int]int, 2048)
)

// probe runs a fixed piece of work that calls no code of the repository
// (a sort, map updates, a hash) and returns its wall time in
// milliseconds.
func probe() float64 {
	start := time.Now()
	copy(probeSorted, probeKeys)
	sort.Ints(probeSorted)
	clear(probeMap)
	for i, x := range probeSorted {
		probeMap[x&2047] += i
	}
	sha256.Sum256(probeBuf)
	return ms(time.Since(start))
}

// hostSpeed returns the median of probeReps probes divided by
// probeRefMS: above 1 when the host runs slower than its reference
// speed. The host's speed drifts by tens of percent over seconds, and
// with it every timed operation; a reading taken right before an
// operation drifts with it, while a change to the program leaves it
// alone. A rate multiplied by the reading is the rate at the reference
// speed.
func hostSpeed() float64 {
	ps := make([]float64, probeReps)
	for i := range ps {
		ps[i] = probe()
	}
	return median(ps) / probeRefMS
}

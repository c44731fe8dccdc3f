package main

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"sort"
)

// Latencies are kept as exact nanosecond samples and percentiles are taken by
// sorting — no log buckets (internal/bench/hist.go quantises to ~10 %).

func sortedCopy(s []int64) []int64 {
	c := append([]int64(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c
}

// percentile is the nearest-rank percentile of a sorted sample: the smallest
// value with at least p of the samples at or below it. Empty samples read 0.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)]
}

// rank is the index of the nearest-rank p-quantile in a sorted sample of n.
func rank(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// pmax10 is the highest percentile that still has at least ten samples beyond
// it — the deepest tail value the sample supports. It reads (0, false) when
// the sample has fewer than eleven values.
func pmax10(sorted []int64) (int64, bool) {
	if len(sorted) < 11 {
		return 0, false
	}
	return sorted[len(sorted)-11], true
}

func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	if n := len(c); n%2 == 1 {
		return c[n/2]
	} else {
		return (c[n/2-1] + c[n/2]) / 2
	}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) (exclusive method) does, so -compare
// reports the same spread the pipeline computes.
func quartiles(v []float64) (q1, q3 float64) {
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	n := len(c)
	if n < 2 {
		return c[0], c[0]
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4 // 1-based index of the lower neighbour
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := k*(n+1) - j*4 // distance past it, in quarters
		return (c[j-1]*float64(4-d) + c[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// --- payloads ---
//
// Every object carries [0:8) a counter, [8:16) its object id, a fill derived
// from both, and a CRC-32C trailer over all of it. A torn read fails the
// checksum; a read of the wrong object fails the id; a lost or stale update
// shows as a counter that differs from the model or from the object's group.

const payloadMin = 24

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func fillPayload(buf []byte, id, counter uint64) {
	n := len(buf) - 4
	binary.LittleEndian.PutUint64(buf[0:], counter)
	binary.LittleEndian.PutUint64(buf[8:], id)
	x := mix64(id ^ counter<<32)
	i := 16
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], x)
		x += 0x9e3779b97f4a7c15
	}
	for ; i < n; i++ {
		buf[i] = byte(x)
	}
	binary.LittleEndian.PutUint32(buf[n:], crc32.Checksum(buf[:n], castagnoli))
}

// checkPayload verifies the trailer and returns the embedded id and counter.
func checkPayload(buf []byte) (id, counter uint64, ok bool) {
	if len(buf) < payloadMin {
		return 0, 0, false
	}
	n := len(buf) - 4
	if binary.LittleEndian.Uint32(buf[n:]) != crc32.Checksum(buf[:n], castagnoli) {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint64(buf[8:]), binary.LittleEndian.Uint64(buf[0:]), true
}

package bench

import (
	"sort"
	"testing"
)

// TestZipfShape pins the skew of the zipfian key stream: the hot keys must
// absorb a large share of the traffic (that is the point of the
// distribution), but no single key may be the whole workload.
func TestZipfShape(t *testing.T) {
	w := Workload{Keys: 1000, Dist: "zipf", Seed: 1}
	counts := keyCounts(w.Stream(0), 100000)

	sorted := append([]int(nil), counts...)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))

	top10 := 0
	for _, c := range sorted[:10] {
		top10 += c
	}
	// With s=1.1 over 1k keys, the top 10 keys carry roughly half the
	// traffic. Pin a generous band so the test survives rand reseeding
	// while still failing if the distribution degenerates to uniform
	// (top-10 share would be ~1%) or to a constant (share ~100%).
	if share := float64(top10) / 100000; share < 0.25 || share > 0.95 {
		t.Fatalf("zipf top-10 share = %.3f, want within [0.25, 0.95]", share)
	}
	// The head must dominate the median key.
	if sorted[0] < 50*sorted[len(sorted)/2] && sorted[len(sorted)/2] > 0 {
		t.Fatalf("zipf head %d not dominant over median %d", sorted[0], sorted[len(sorted)/2])
	}
}

// TestUniformShape pins the flatness of the uniform stream.
func TestUniformShape(t *testing.T) {
	w := Workload{Keys: 100, Dist: "uniform", Seed: 2}
	counts := keyCounts(w.Stream(0), 100000)
	for k, c := range counts {
		// Expected 1000 per key; 5 sigma is ~±160.
		if c < 700 || c > 1300 {
			t.Fatalf("uniform key %d drawn %d times, want ~1000", k, c)
		}
	}
}

// TestStreamDeterminism pins reproducibility: same workload and worker give
// the same sequence; different workers diverge.
func TestStreamDeterminism(t *testing.T) {
	w := Workload{Keys: 64, ReadFrac: 0.5, Dist: "zipf", Seed: 7}
	a, b, c := w.Stream(3), w.Stream(3), w.Stream(4)
	same, diff := true, false
	for i := 0; i < 256; i++ {
		ak, ar := a.Next()
		bk, br := b.Next()
		ck, _ := c.Next()
		if ak != bk || ar != br {
			same = false
		}
		if ak != ck {
			diff = true
		}
	}
	if !same {
		t.Fatal("same worker index produced different streams")
	}
	if !diff {
		t.Fatal("different worker indexes produced identical key streams")
	}
}

// TestReadFraction pins the op mix: the read share of a long stream tracks
// ReadFrac.
func TestReadFraction(t *testing.T) {
	for _, frac := range []float64{0.5, 0.95, 0.99} {
		w := Workload{Keys: 10, ReadFrac: frac, Seed: 11}
		st := w.Stream(0)
		reads := 0
		for i := 0; i < 100000; i++ {
			if _, r := st.Next(); r {
				reads++
			}
		}
		got := float64(reads) / 100000
		if got < frac-0.01 || got > frac+0.01 {
			t.Fatalf("ReadFrac %.2f: observed %.3f", frac, got)
		}
	}
}

// keyCounts draws n keys from o and tallies them: the shape histogram the
// tests above pin.
func keyCounts(o *OpStream, n int) []int {
	counts := make([]int, o.keys)
	for i := 0; i < n; i++ {
		k, _ := o.Next()
		counts[k]++
	}
	return counts
}

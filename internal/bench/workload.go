package bench

import (
	"fmt"
	"math/rand"
)

// Workload driver (E16): a keyed read/write operation stream over a fixed
// dataset. Keys are drawn uniformly or zipfian-skewed (the classic hot-set
// shape: a few segments absorb most of the traffic, which is exactly where
// callback revocation and lock contention hurt). Each worker derives its own
// deterministic stream from the workload seed and its worker index, so runs
// are reproducible and workers never share a generator.

// Workload describes an operation mix over Keys objects.
type Workload struct {
	Keys     int     // dataset size (object count)
	ReadFrac float64 // fraction of operations that are reads (0..1)
	Dist     string  // "uniform" or "zipf"
	ZipfS    float64 // zipf skew parameter s > 1 (0 = DefaultZipfS)
	Seed     int64   // base seed; worker i uses Seed+i
}

// DefaultZipfS is the skew used when ZipfS is unset: a moderately hot
// distribution (~37% of traffic on the top 1% of 1k keys).
const DefaultZipfS = 1.1

// OpStream is one worker's deterministic operation sequence.
type OpStream struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	keys int
	read float64
}

// Stream returns worker's operation stream. Distinct workers get distinct,
// reproducible streams.
func (w Workload) Stream(worker int) *OpStream {
	rng := rand.New(rand.NewSource(w.Seed + int64(worker)))
	st := &OpStream{rng: rng, keys: w.Keys, read: w.ReadFrac}
	switch w.Dist {
	case "zipf":
		s := w.ZipfS
		if s <= 1 {
			s = DefaultZipfS
		}
		st.zipf = rand.NewZipf(rng, s, 1, uint64(w.Keys-1))
	case "", "uniform":
		// rng alone serves
	default:
		panic(fmt.Sprintf("bench: unknown distribution %q", w.Dist))
	}
	return st
}

// Next draws one operation: the key it touches and whether it is a read.
func (o *OpStream) Next() (key int, read bool) {
	if o.zipf != nil {
		key = int(o.zipf.Uint64())
	} else {
		key = o.rng.Intn(o.keys)
	}
	return key, o.rng.Float64() < o.read
}

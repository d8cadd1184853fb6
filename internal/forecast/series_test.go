package forecast

import (
	"math"
	"math/rand"
)

// noisySeasonal is a seeded test series: one sine per period around a
// level of 10, plus Gaussian noise.
func noisySeasonal(seed int64, n int, periods ...int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		v := 10.0
		for k, p := range periods {
			v += 3 / float64(k+1) * math.Sin(2*math.Pi*float64(i%p)/float64(p))
		}
		out[i] = v + 0.5*rng.NormFloat64()
	}
	return out
}

// householdSeries is the benchmark's meter stream (bench/gen.go batch):
// an evening-peaked half-hourly household demand shape with ±10 %
// hashed noise, as slots [from, from+n) of series id under seed.
func householdSeries(seed int64, id, from, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		slot := from + i
		hour := float64(slot%48) / 2
		shape := 0.6 + 0.4*math.Exp(-(hour-18)*(hour-18)/18)
		out[i] = 0.5 * shape * (0.9 + 0.2*hashUnit(uint64(seed), uint64(id), uint64(slot)))
	}
	return out
}

// pvSeries is a rooftop-PV counterpart to householdSeries: a midday
// bell over a small night-time floor with ±20 % hashed noise.
func pvSeries(seed int64, id, from, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		slot := from + i
		hour := float64(slot%48) / 2
		shape := 0.05 + math.Exp(-(hour-13)*(hour-13)/8)
		out[i] = 1.5 * shape * (0.8 + 0.4*hashUnit(uint64(seed), uint64(id)+1<<32, uint64(slot)))
	}
	return out
}

// hashUnit hashes its arguments to a float in [0,1) (splitmix64
// finalizer).
func hashUnit(a, b, c uint64) float64 {
	x := a*0x9e3779b97f4a7c15 ^ b*0xbf58476d1ce4e5b9 ^ c*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

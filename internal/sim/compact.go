package sim

import (
	"math"
	"math/rand/v2"
)

// compactSource is the per-client random stream used when
// Config.CompactRNG is set: a two-word PCG generator (16 bytes of state
// per client, vs ~5 KB for math/rand's lagged-Fibonacci source), with
// the handful of derived draws the engine needs implemented inline so
// nothing escapes to the heap. The streams differ from the default
// math/rand sources — compact mode trades byte-identity with the
// committed multi-client goldens for 10^6-client memory — but they are
// just as deterministic: the same (Seed, client id) always replays the
// same stream.
type compactSource struct {
	pcg rand.PCG
}

// seed derives the two PCG words from the engine's per-client seed
// (cfg.Seed + (i+1)*1_000_003, the same derivation as compat mode) via
// SplitMix64, so adjacent client seeds land in unrelated streams.
func (s *compactSource) seed(seed int64) {
	z := uint64(seed)
	s.pcg.Seed(splitmix64(&z), splitmix64(&z))
}

func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform draw in [0, 1) with 53 random bits.
func (s *compactSource) float64() float64 {
	return float64(s.pcg.Uint64()>>11) / (1 << 53)
}

// intn returns a uniform draw in [0, n) for n > 0, rejecting the biased
// tail exactly like math/rand.Int63n.
func (s *compactSource) intn(n int) int {
	un := uint64(n)
	maxAccept := ^uint64(0) - ^uint64(0)%un
	for {
		v := s.pcg.Uint64()
		if v < maxAccept {
			return int(v % un)
		}
	}
}

// expFloat64 returns an Exp(1) draw by inverse CDF. The ziggurat in
// math/rand is faster per draw but is welded to *rand.Rand; -ln(1-U)
// is branch-free, allocation-free and precise enough for think times.
func (s *compactSource) expFloat64() float64 {
	return -math.Log1p(-s.float64())
}

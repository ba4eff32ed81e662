package core

import (
	"math/rand"
	randv2 "math/rand/v2"
)

// NewRand returns the random stream the sampling algorithms draw from at
// seed: a *rand.Rand over a PCG generator (math/rand/v2), whose whole state
// is two words, so seeding costs O(1) — math/rand's own source rebuilds
// 607 words per seed. Equal seeds give equal streams, and Seed on the
// returned Rand restarts it exactly as NewRand(seed) would.
func NewRand(seed int64) *rand.Rand {
	s := new(pcgSource)
	s.Seed(seed)
	return rand.New(s)
}

// pcgSource adapts math/rand/v2's PCG to math/rand's Source64, so every
// *rand.Rand call site keeps its API.
type pcgSource struct{ pcg randv2.PCG }

// Seed restarts the stream at seed, in the PCG's low state word.
func (s *pcgSource) Seed(seed int64) { s.pcg.Seed(0, uint64(seed)) }

func (s *pcgSource) Uint64() uint64 { return s.pcg.Uint64() }

func (s *pcgSource) Int63() int64 { return int64(s.pcg.Uint64() >> 1) }

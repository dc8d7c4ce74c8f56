package sim

// RNG is a small, fast, deterministic pseudo-random number generator
// (splitmix64 seeding a xorshift64* core). Every stochastic choice in the
// simulation flows through an explicitly seeded RNG so that runs are
// reproducible; math/rand's global state is never used.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Any seed, including zero,
// is valid: seeds are passed through splitmix64 so the internal state is
// never the degenerate all-zero state.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator to the deterministic stream for seed.
func (r *RNG) Seed(seed uint64) {
	// splitmix64 step: guarantees a non-zero, well-mixed state.
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 0x9e3779b97f4a7c15
	}
	r.state = z
}

// Uint64 returns the next value in the stream.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with n <= 0")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Fork returns a new generator whose stream is derived from, but
// independent of, this one. Forking lets one experiment seed hand out
// decorrelated streams to sub-components.
func (r *RNG) Fork() *RNG { return NewRNG(r.Uint64()) }

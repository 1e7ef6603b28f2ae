package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (splitmix64). Every stochastic decision in the simulator draws from an
// RNG seeded from the run configuration, so identical configurations
// replay identical simulations.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two generators with the
// same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return unit(r.Uint64())
}

// unit maps 64 random bits to a uniform float in [0, 1): the top 53
// bits over 2^53.
func unit(bits uint64) float64 {
	return float64(bits>>11) / float64(1<<53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Fork derives an independent generator whose stream is a deterministic
// function of the parent seed and the label. Used to give each simulated
// thread its own stream without cross-coupling.
func (r *RNG) Fork(label uint64) *RNG {
	return NewRNG(r.Uint64() ^ (label * 0xd1342543de82ef95))
}

// ZipfGen draws from a bounded Zipf-like distribution over [0, n) with
// skew s >= 0, by inverse CDF on the continuous distribution: s = 0
// degenerates to uniform, larger s concentrates mass on small indices,
// which workload synthesis uses to create hot sets. NewZipfGen hoists
// the transcendentals that depend only on (n, s); every draw consumes
// exactly one RNG output (none when n <= 1).
//
// For s != 1 the index is int(A-1), clamped to [0, n), where
//
//	A = math.Pow(w, invP),  w = u*powT + 1,  powT = n^(1-s) - 1,  invP = 1/(1-s),
//
// and u is the draw's 53-bit uniform. Index evaluates that expression
// exactly on few draws: it approximates A with powFast and accepts
// int(A'-1) when int(A'-1-m) == int(A'-1+m) for the margin m =
// A'·fastMargin, falling back to the exact expression otherwise. The
// fast path returns the exact expression's index whenever A' is within
// m of math.Pow's result, because int is monotone and A-1 is exact in
// float64 for A < 2^53. NewZipfGen enables it only when fastErr, which
// bounds that distance relative to A, is at most a quarter of the
// margin; otherwise every draw takes the exact expression.
//
// The bound, for any w the generator forms (2^-53 <= w < 2^63, so w and
// A are normal) and y = invP, with L = max|ln w| = |1-s|·ln n and
// Z = ln n >= |ln A|:
//
//   - powFast's log: w = 2^e·f with f in [1, 2); c is the centre of f's
//     1/256 bucket, so t = (f-c)/c has |t| <= 2^-9 and f-c is exact. The
//     cubic t - t²/2 + t³/3 misses ln(1+t) by at most t⁴/4/(1-|t|) <
//     2^-37.9; rounding in t, the tables, e·ln2 and the sums adds at most
//     (|e|+4)·2^-52, with |e| <= L/ln2 + 1.
//   - The product z = y·l multiplies that by |y| and adds |z|·2^-53.
//   - powFast's exp: z = j·ln2/256 + r with |r| <= ln2/512; rounding in
//     the reduction adds |z|·2^-52 to r. The cubic 1 + r + r²/2 + r³/6
//     misses e^r by at most r⁴/24·1.01 < 2^-42.6, and the table, Horner
//     steps and final product round by at most 4·2^-53; the scale by
//     2^(j>>8) is exact.
//   - math.Pow(w, y) splits |y| into an integer part, raised by binary
//     powering (relative error at most (|y|+2)·2^-53, the reciprocal for
//     y < 0 included), and a fraction of magnitude at most 1/2 taken as
//     Exp(yf·Log(w)), which with Log and Exp within 4 ulps errs by at
//     most L·2^-51 + 2^-50.
//
// Summed and rounded up, fastErr = |y|·2^-37 + (|y| + 3Z + 2L + 8)·2^-48
// + 2^-42. Every catalog skew has |y| <= 20, so the bound is at most
// 2^-32.6 there, against a margin of 2^-28: a draw falls back only when
// A' lies within A'·2^-28 of an integer, a few draws in a million on the
// catalog's shapes (DESIGN §8). TestZipfDrawExact checks the index
// transitions of the shapes the workload package draws from against the
// exact expression; a margin of 2^-40 fails it.
type ZipfGen struct {
	n    int
	mode zipfMode
	logN float64 // zipfLog: ln n
	powT float64 // zipfPow, zipfFast: n^(1-s) - 1
	invP float64 // zipfPow, zipfFast: 1/(1-s)
}

type zipfMode uint8

const (
	zipfConst   zipfMode = iota // n <= 1: always 0
	zipfUniform                 // s <= 0
	zipfLog                     // s == 1: CDF ~ ln(1+x)/ln(1+n)
	zipfPow                     // CDF ~ (x^(1-s)-1)/(n^(1-s)-1), exact on every draw
	zipfFast                    // as zipfPow, through powFast where its guard allows
)

// fastMargin is the guard's margin relative to A (see ZipfGen).
const fastMargin = 0x1p-28

// NewZipfGen builds a sampler for n indices with skew s. It allocates
// nothing and costs O(1).
func NewZipfGen(n int, s float64) ZipfGen {
	z := ZipfGen{n: n}
	switch {
	case n <= 1:
		z.mode = zipfConst
	case s <= 0:
		z.mode = zipfUniform
	case s == 1:
		z.mode = zipfLog
		z.logN = math.Log(float64(n))
	default:
		p := 1 - s
		z.powT = math.Pow(float64(n), p) - 1
		z.invP = 1 / p
		z.mode = zipfPow
		lnN := math.Log(float64(n))
		if fastErr(z.invP, lnN, math.Abs(p)*lnN) <= fastMargin/4 {
			z.mode = zipfFast
		}
	}
	return z
}

// fastErr bounds |powFast(w, y) - w^y| + |math.Pow(w, y) - w^y|
// relative to w^y, for |ln w| <= lnW and |y·ln w| <= lnN (see
// ZipfGen). A NaN or infinite operand yields a NaN or infinite bound,
// which disables the fast path.
func fastErr(y, lnN, lnW float64) float64 {
	y = math.Abs(y)
	return y*0x1p-37 + (y+3*lnN+2*lnW+8)*0x1p-48 + 0x1p-42
}

// Draw returns the next Zipf index, advancing r by one output unless
// n <= 1.
func (z *ZipfGen) Draw(r *RNG) int {
	return z.Index(z.Bits(r))
}

// Bits consumes from r what Draw consumes and returns it, for Index to
// map later: one Uint64, or nothing when n <= 1.
func (z *ZipfGen) Bits(r *RNG) uint64 {
	if z.mode == zipfConst {
		return 0
	}
	return r.Uint64()
}

// Index maps the bits Bits returned to Draw's index.
func (z *ZipfGen) Index(bits uint64) int {
	switch z.mode {
	case zipfConst:
		return 0
	case zipfUniform:
		return int(bits % uint64(z.n))
	}
	u := unit(bits)
	if z.mode == zipfLog {
		x := math.Exp(u*z.logN) - 1
		i := int(x)
		if i >= z.n {
			i = z.n - 1
		}
		return i
	}
	i, ok := z.fastIndex(u, fastMargin)
	if !ok {
		i = int(math.Pow(u*z.powT+1, z.invP) - 1)
	}
	if i < 0 {
		i = 0
	}
	if i >= z.n {
		i = z.n - 1
	}
	return i
}

// fastIndex returns int(A-1), before clamping, with A from powFast, and
// whether the guard with the given margin (relative to A) accepts it.
// ok is false unless the generator is zipfFast.
func (z *ZipfGen) fastIndex(u, margin float64) (i int, ok bool) {
	if z.mode != zipfFast {
		return 0, false
	}
	a := powFast(u*z.powT+1, z.invP)
	m := a * margin
	i = int(a - 1 - m)
	return i, i == int(a-1+m)
}

// Tables for powFast, filled once by init and read-only afterwards:
// for the mantissa bucket k of [1, 2) in steps of 1/256, the natural
// log and reciprocal of its centre c_k = 1 + (k+0.5)/256, and 2^(k/256).
var (
	lnCentre  [256]float64
	invCentre [256]float64
	exp2Frac  [256]float64
)

func init() {
	for k := range lnCentre {
		c := 1 + (float64(k)+0.5)/256
		lnCentre[k] = math.Log(c)
		invCentre[k] = 1 / c
		exp2Frac[k] = math.Exp2(float64(k) / 256)
	}
}

// powFast approximates w^y, for a normal w > 0 and w^y in [1, 2^63),
// within the relative error fastErr bounds (see ZipfGen).
func powFast(w, y float64) float64 {
	const (
		fracMask = 1<<52 - 1
		one      = 1023 << 52 // exponent bits of [1, 2)
	)
	b := math.Float64bits(w)
	k := b >> 44 & 255
	f := math.Float64frombits(b&fracMask | one)
	c := math.Float64frombits(k<<44 | 1<<43 | one) // bucket centre c_k
	t := (f - c) * invCentre[k]
	l := float64(int(b>>52)-1023)*math.Ln2 + lnCentre[k] + t*(1+t*(-1.0/2+t*(1.0/3)))
	z := y * l
	// z >= ln(1) - error, so adding 1/2 and truncating rounds to nearest.
	j := int(z*(256/math.Ln2) + 0.5)
	r := z - float64(j)*(math.Ln2/256)
	a := exp2Frac[j&255] * (1 + r*(1+r*(1.0/2+r*(1.0/6))))
	return math.Float64frombits(math.Float64bits(a) + uint64(j>>8)<<52)
}

package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// The key distributions the engine knows. They are strings (not an enum) so
// CLI flags and experiment configs pass them through unchanged.
const (
	// Uniform draws every key with equal probability — the
	// shard-router-friendly baseline.
	Uniform = "uniform"
	// Zipfian draws keys with the YCSB-style scrambled-zipfian skew: a few
	// keys absorb most of the traffic (θ≈0.99 ≈ the classic web-cache shape),
	// scattered over the keyspace so the hot keys don't cluster in one
	// ordering group by construction.
	Zipfian = "zipfian"
)

// Dists lists the supported key distributions.
func Dists() []string { return []string{Uniform, Zipfian} }

// chooser draws key indices in [0, n) under some distribution. Implementations
// are deterministic functions of their seed and are NOT safe for concurrent
// use — the engine gives each worker its own.
type chooser interface {
	next() uint64
}

// newChooser builds the chooser for one worker.
func newChooser(dist string, n uint64, theta float64, rng *rand.Rand) (chooser, error) {
	if n == 0 {
		return nil, fmt.Errorf("workload: empty keyspace")
	}
	switch dist {
	case Uniform, "":
		return uniformChooser{n: n, rng: rng}, nil
	case Zipfian:
		if theta <= 0 || theta >= 1 {
			return nil, fmt.Errorf("workload: zipfian theta %v out of (0,1)", theta)
		}
		return newZipfChooser(n, theta, rng), nil
	default:
		return nil, fmt.Errorf("workload: unknown key distribution %q (have: uniform, zipfian)", dist)
	}
}

type uniformChooser struct {
	n   uint64
	rng *rand.Rand
}

func (u uniformChooser) next() uint64 {
	return uint64(u.rng.Int63n(int64(u.n))) //nolint:gosec // n validated positive
}

// zipfChooser is the Gray et al. quick zipfian generator (the one YCSB
// uses), for skew parameter θ ∈ (0,1) — math/rand's Zipf only covers s > 1.
// Rank r is drawn with probability ∝ 1/r^θ, then scrambled over the
// keyspace with an FNV-1a hash so the popular keys are spread out instead of
// being keys 0..k (YCSB's "scrambled zipfian").
type zipfChooser struct {
	n          uint64
	theta      float64
	alpha      float64
	zetan      float64
	eta        float64
	halfPowWgt float64
	rng        *rand.Rand
}

func newZipfChooser(n uint64, theta float64, rng *rand.Rand) *zipfChooser {
	zetan := zeta(n, theta)
	return &zipfChooser{
		n:          n,
		theta:      theta,
		alpha:      1 / (1 - theta),
		zetan:      zetan,
		eta:        (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2, theta)/zetan),
		halfPowWgt: 1 + math.Pow(0.5, theta),
		rng:        rng,
	}
}

// zeta computes the generalized harmonic number Σ 1/i^θ for i in [1, n].
// O(n) once per chooser; keyspaces are at most a few million keys.
func zeta(n uint64, theta float64) float64 {
	var sum float64
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

func (z *zipfChooser) next() uint64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	var rank uint64
	switch {
	case uz < 1:
		rank = 0
	case uz < z.halfPowWgt:
		rank = 1
	default:
		rank = uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	}
	if rank >= z.n {
		rank = z.n - 1
	}
	return scramble(rank) % z.n
}

// scramble is FNV-1a over the rank's 8 bytes: a cheap, deterministic spread
// of the hot ranks across the keyspace (and therefore across the ordering
// groups of a sharded deployment — the residual imbalance a zipfian run
// routes to the hottest group is the head key's true weight, not an artifact
// of hot keys being neighbors).
func scramble(rank uint64) uint64 {
	const (
		fnvOffset64 = 14695981039346656037
		fnvPrime64  = 1099511628211
	)
	h := uint64(fnvOffset64)
	for i := 0; i < 8; i++ {
		h ^= (rank >> (8 * i)) & 0xff
		h *= fnvPrime64
	}
	return h
}

// valueAlphabet is what synthetic write payloads are made of.
const valueAlphabet = "abcdefghijklmnopqrstuvwxyz0123456789"

// Generator emits a deterministic stream of state-machine commands for one
// worker: kv "get k…"/"set k… v…" operations with the spec's read/write
// mix, key distribution and value size. Two generators built from the same
// spec and worker index emit identical streams — the property that makes
// workload runs reproducible across processes and repetitions. Not safe for
// concurrent use; the engine gives each worker its own.
type Generator struct {
	w         int
	rng       *rand.Rand
	keys      chooser
	readRatio float64
	valueSize int
	buf       []byte
	versions  map[uint64]uint64 // per-key write version
}

// NewGenerator builds worker w's command generator for the spec. The
// per-worker seed is derived from Spec.Seed so distinct workers draw
// distinct (but individually reproducible) streams.
func NewGenerator(spec Spec, w int) (*Generator, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	return newGenerator(spec, w)
}

// newGenerator is NewGenerator for a spec that already has its defaults:
// withDefaults is not idempotent (an explicit all-writes ReadRatio -1 becomes
// 0, which a second pass would turn into the 0.5 default).
func newGenerator(spec Spec, w int) (*Generator, error) {
	rng := rand.New(rand.NewSource(spec.Seed + int64(w)*0x9E3779B9))
	keys, err := newChooser(spec.Dist, uint64(spec.Keys), spec.Theta, rng) //nolint:gosec // Keys validated positive
	if err != nil {
		return nil, err
	}
	g := &Generator{
		w:         w,
		rng:       rng,
		keys:      keys,
		readRatio: spec.ReadRatio,
		valueSize: spec.ValueSize,
		versions:  make(map[uint64]uint64),
	}
	return g, nil
}

// appendKey renders key ids in a fixed width so every key token has the
// same length (value size is then the only command-size variable).
func appendKey(buf []byte, key uint64) []byte {
	return append(buf, fmt.Sprintf("k%08d", key)...)
}

// Op is one generated operation, with enough shape for the engine to route
// it (reads onto the fast path) and to verify read-your-writes. Cmd and
// Value alias the generator's reused buffer — copy what outlives the next
// NextOp call.
type Op struct {
	Cmd  []byte
	Read bool
	Key  uint64
	// Value is the written value (aliasing Cmd; nil for reads). Values are
	// worker-tagged — "w<worker>v<version>" plus deterministic padding to
	// the spec's value size — so a read result identifies which worker's
	// write it observed, making stale reads of one's own writes detectable.
	Value []byte
}

// NextOp returns the next operation; write values carry the worker tag
// described on Op.
func (g *Generator) NextOp() Op {
	key := g.keys.next()
	read := g.rng.Float64() < g.readRatio
	g.buf = g.buf[:0]
	if read {
		g.buf = append(g.buf, "get "...)
		g.buf = appendKey(g.buf, key)
		return Op{Cmd: g.buf, Read: true, Key: key}
	}
	g.versions[key]++
	g.buf = append(g.buf, "set "...)
	g.buf = appendKey(g.buf, key)
	g.buf = append(g.buf, ' ')
	valStart := len(g.buf)
	g.buf = fmt.Appendf(g.buf, "w%dv%d", g.w, g.versions[key])
	for len(g.buf)-valStart < g.valueSize {
		g.buf = append(g.buf, valueAlphabet[g.rng.Intn(len(valueAlphabet))])
	}
	return Op{Cmd: g.buf, Key: key, Value: g.buf[valStart:]}
}

// OwnValuePrefix is the tag every value worker w writes starts with. The
// trailing 'v' keeps tags prefix-free across workers (w1's tag is never a
// prefix of w11's).
func OwnValuePrefix(w int) []byte { return fmt.Appendf(nil, "w%dv", w) }

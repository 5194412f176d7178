/**
 * @file
 * Deterministic random number generation for all stochastic components.
 *
 * Every simulator, optimizer and Monte-Carlo experiment in this library
 * takes an explicit seed; this header provides the single PRNG type they
 * share (xoshiro256**), plus the common distributions needed by the
 * noise models and optimizers.
 */

#ifndef EFTVQA_COMMON_RNG_HPP
#define EFTVQA_COMMON_RNG_HPP

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace eftvqa {

/**
 * xoshiro256** PRNG (Blackman & Vigna). Small, fast, high quality, and —
 * unlike std::mt19937 — identical results across standard library
 * implementations, which keeps tests and benches reproducible.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed, expanded via splitmix64. */
    explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** Next raw 64-bit value. */
    uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). Requires n > 0. */
    uint64_t uniformInt(uint64_t n);

    /** Standard normal variate (Box–Muller, cached spare). */
    double normal();

    /** Normal with mean mu and standard deviation sigma. */
    double normal(double mu, double sigma);

    /** Bernoulli trial with success probability p. */
    bool bernoulli(double p);

    /**
     * Number of failures before the first success for success
     * probability p (support {0, 1, 2, ...}). Requires p in (0, 1].
     */
    uint64_t geometric(double p);

    /** Random index drawn according to unnormalized weights. */
    size_t discrete(const std::vector<double> &weights);

    /** Fork an independent stream (seeded from this stream's output). */
    Rng fork();

    /**
     * Fork @p n independent streams in index order. This is the RNG
     * discipline of the parallel execution layer: a Monte-Carlo loop
     * forks one stream per work item *up front*, so item k consumes
     * stream k regardless of which thread runs it — results are
     * bit-identical to a serial sweep of the same streams.
     */
    std::vector<Rng> forkStreams(size_t n);

  private:
    uint64_t s_[4];
    double spare_ = 0.0;
    bool has_spare_ = false;
};

// The per-draw primitives are inline: the trajectory farms draw several
// per gate per trajectory.

inline uint64_t
Rng::next()
{
    const uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
}

inline double
Rng::uniform()
{
    // 53 top bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

inline bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

} // namespace eftvqa

#endif // EFTVQA_COMMON_RNG_HPP

#include "common/rng.hpp"

#include <cmath>
#include <stdexcept>

namespace eftvqa {

namespace {

uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ull;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto &word : s_)
        word = splitmix64(sm);
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

uint64_t
Rng::uniformInt(uint64_t n)
{
    if (n == 0)
        throw std::invalid_argument("Rng::uniformInt: n must be > 0");
    // Rejection sampling to avoid modulo bias.
    const uint64_t limit = UINT64_MAX - UINT64_MAX % n;
    uint64_t v;
    do {
        v = next();
    } while (v >= limit);
    return v % n;
}

double
Rng::normal()
{
    if (has_spare_) {
        has_spare_ = false;
        return spare_;
    }
    double u1, u2;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    spare_ = r * std::sin(theta);
    has_spare_ = true;
    return r * std::cos(theta);
}

double
Rng::normal(double mu, double sigma)
{
    return mu + sigma * normal();
}

uint64_t
Rng::geometric(double p)
{
    if (p <= 0.0 || p > 1.0)
        throw std::invalid_argument("Rng::geometric: p must be in (0, 1]");
    if (p == 1.0)
        return 0;
    double u;
    do {
        u = uniform();
    } while (u <= 0.0);
    return static_cast<uint64_t>(std::floor(std::log(u) /
                                            std::log1p(-p)));
}

size_t
Rng::discrete(const std::vector<double> &weights)
{
    double total = 0.0;
    for (double w : weights)
        total += w;
    if (total <= 0.0)
        throw std::invalid_argument("Rng::discrete: weights sum to zero");
    double target = uniform() * total;
    for (size_t i = 0; i < weights.size(); ++i) {
        target -= weights[i];
        if (target < 0.0)
            return i;
    }
    return weights.size() - 1;
}

Rng
Rng::fork()
{
    return Rng(next());
}

std::vector<Rng>
Rng::forkStreams(size_t n)
{
    std::vector<Rng> streams;
    streams.reserve(n);
    for (size_t i = 0; i < n; ++i)
        streams.push_back(fork());
    return streams;
}

} // namespace eftvqa

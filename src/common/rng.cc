#include "common/rng.h"

#include <cmath>
#include <numeric>

#include "common/logging.h"

namespace h2o::common {

uint64_t
splitmix64(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

void
counterNormalPair(uint64_t key, uint64_t pair, float out[2])
{
    uint64_t state = key + pair * 0x9e3779b97f4a7c15ULL;
    uint64_t bits = splitmix64(state);
    constexpr float kTwoPow24Inv = 1.0f / 16777216.0f;
    constexpr float kTwoPi = 6.28318530717958647692f;
    float u1 = static_cast<float>((bits >> 40) + 1) * kTwoPow24Inv;
    float u2 = static_cast<float>((bits >> 16) & 0xffffffULL) * kTwoPow24Inv;
    float r = std::sqrt(-2.0f * std::log(u1));
    float theta = kTwoPi * u2;
    out[0] = r * std::cos(theta);
    out[1] = r * std::sin(theta);
}

float
counterNormal(uint64_t key, uint64_t index)
{
    float z[2];
    counterNormalPair(key, index / 2, z);
    return z[index % 2];
}

Rng::Rng(uint64_t seed) : _seed(seed), _engine(seed) {}

Rng
Rng::fork(uint64_t salt) const
{
    uint64_t state = _seed ^ (0x9e3779b97f4a7c15ULL * (salt + 1));
    // Two splitmix rounds decorrelate even adjacent salts.
    uint64_t child = splitmix64(state);
    child ^= splitmix64(state);
    return Rng(child);
}

double
Rng::uniform()
{
    return std::uniform_real_distribution<double>(0.0, 1.0)(_engine);
}

double
Rng::uniform(double lo, double hi)
{
    h2o_assert(lo <= hi, "uniform bounds inverted: ", lo, " > ", hi);
    return std::uniform_real_distribution<double>(lo, hi)(_engine);
}

int64_t
Rng::uniformInt(int64_t lo, int64_t hi)
{
    h2o_assert(lo <= hi, "uniformInt bounds inverted: ", lo, " > ", hi);
    return std::uniform_int_distribution<int64_t>(lo, hi)(_engine);
}

double
Rng::normal()
{
    return std::normal_distribution<double>(0.0, 1.0)(_engine);
}

double
Rng::normal(double mean, double stddev)
{
    h2o_assert(stddev >= 0.0, "negative stddev ", stddev);
    return std::normal_distribution<double>(mean, stddev)(_engine);
}

double
Rng::logNormal(double mu, double sigma)
{
    return std::exp(normal(mu, sigma));
}

bool
Rng::bernoulli(double p)
{
    h2o_assert(p >= 0.0 && p <= 1.0, "bernoulli p out of range: ", p);
    return uniform() < p;
}

size_t
Rng::categorical(const std::vector<double> &weights)
{
    h2o_assert(!weights.empty(), "categorical over empty weights");
    double total = 0.0;
    for (double w : weights) {
        h2o_assert(w >= 0.0, "negative categorical weight ", w);
        total += w;
    }
    h2o_assert(total > 0.0, "categorical weights sum to zero");
    double r = uniform() * total;
    double acc = 0.0;
    for (size_t i = 0; i < weights.size(); ++i) {
        acc += weights[i];
        if (r < acc)
            return i;
    }
    return weights.size() - 1;
}

size_t
Rng::zipf(size_t n, double s)
{
    h2o_assert(n > 0, "zipf over empty support");
    // Direct inverse-CDF over the (small) support; callers use this for
    // embedding-table access skew where n is bounded by vocabulary buckets.
    double norm = 0.0;
    for (size_t k = 1; k <= n; ++k)
        norm += 1.0 / std::pow(static_cast<double>(k), s);
    double r = uniform() * norm;
    double acc = 0.0;
    for (size_t k = 1; k <= n; ++k) {
        acc += 1.0 / std::pow(static_cast<double>(k), s);
        if (r < acc)
            return k - 1;
    }
    return n - 1;
}

std::vector<size_t>
Rng::permutation(size_t n)
{
    std::vector<size_t> perm(n);
    std::iota(perm.begin(), perm.end(), size_t{0});
    for (size_t i = n; i > 1; --i) {
        size_t j = static_cast<size_t>(uniformInt(0, static_cast<int64_t>(i) - 1));
        std::swap(perm[i - 1], perm[j]);
    }
    return perm;
}

uint64_t
Rng::next64()
{
    return _engine();
}

void
Rng::save(std::ostream &os) const
{
    // The mt19937_64 stream operators serialize the full engine state as
    // decimal integers — exact, unlike a double round-trip.
    os << "rng " << _seed << "\n" << _engine << "\n";
}

void
Rng::load(std::istream &is)
{
    std::string word;
    if (!(is >> word) || word != "rng")
        h2o_fatal("checkpoint expected 'rng', found '", word, "'");
    if (!(is >> _seed >> _engine))
        h2o_fatal("checkpoint truncated inside rng state");
}

} // namespace h2o::common

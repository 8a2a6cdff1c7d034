/**
 * @file
 * Deterministic random number generation.
 *
 * All randomness in the library flows through Rng instances whose seeds are
 * derived explicitly, so every search, simulation, and benchmark is exactly
 * reproducible given a seed. Independent streams (one per virtual
 * accelerator shard, one per workload generator, ...) are derived with
 * Rng::fork(), which uses SplitMix64 to decorrelate child seeds.
 */

#ifndef H2O_COMMON_RNG_H
#define H2O_COMMON_RNG_H

#include <cstdint>
#include <istream>
#include <ostream>
#include <random>
#include <vector>

namespace h2o::common {

/**
 * A seeded random stream wrapping a 64-bit Mersenne Twister with
 * convenience samplers used across the library.
 */
class Rng
{
  public:
    /** Construct a stream from an explicit seed. */
    explicit Rng(uint64_t seed = 0x5eed5eedULL);

    /**
     * Derive an independent child stream. Reads only the seed: the
     * child does not depend on how many draws the parent has made, and
     * concurrent forks of one stream are safe.
     *
     * @param salt Distinguishes siblings forked from the same parent state.
     */
    Rng fork(uint64_t salt) const;

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t uniformInt(int64_t lo, int64_t hi);

    /** Standard normal draw. */
    double normal();

    /** Normal draw with the given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Log-normal draw: exp(N(mu, sigma)). */
    double logNormal(double mu, double sigma);

    /** Bernoulli draw with success probability p. */
    bool bernoulli(double p);

    /**
     * Sample an index from an unnormalized non-negative weight vector.
     * @pre weights is non-empty and sums to a positive value.
     */
    size_t categorical(const std::vector<double> &weights);

    /** Zipf-distributed integer in [0, n) with exponent s (s >= 0). */
    size_t zipf(size_t n, double s);

    /** Fisher-Yates shuffle of an index permutation [0, n). */
    std::vector<size_t> permutation(size_t n);

    /** Raw 64-bit draw (for deriving sub-seeds). */
    uint64_t next64();

    /** The seed this stream was constructed with. */
    uint64_t seed() const { return _seed; }

    /**
     * Checkpoint the stream: seed plus full engine state, exactly. A
     * restored stream produces the identical draw sequence, which is
     * what makes a resumed search bit-identical to an uninterrupted one.
     */
    void save(std::ostream &os) const;

    /** Restore a checkpointed stream; fatal on malformed input. */
    void load(std::istream &is);

  private:
    uint64_t _seed;
    std::mt19937_64 _engine;
};

/** SplitMix64 step, exposed for deterministic seed derivation. */
uint64_t splitmix64(uint64_t &state);

/**
 * Counter-based standard normals: draws 2*pair and 2*pair+1 of the
 * stream keyed by `key`, a pure function of (key, pair). One SplitMix64
 * output (the pair-th of a SplitMix64 stream seeded with key) feeds one
 * float Box-Muller transform: 24 bits for the radius, 24 for the angle.
 * Because no draw depends on another, a fill can split its index range
 * across threads and still write the same values. The radius draw lies
 * in (0, 1], so every result is finite (|z| <= 5.77).
 */
void counterNormalPair(uint64_t key, uint64_t pair, float out[2]);

/** Draw `index` of the counter-based normal stream keyed by `key`:
 *  counterNormalPair(key, index / 2)[index % 2]. */
float counterNormal(uint64_t key, uint64_t index);

} // namespace h2o::common

#endif // H2O_COMMON_RNG_H

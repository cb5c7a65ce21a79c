/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * densim implements its own generator (xoshiro256** seeded through
 * SplitMix64) instead of relying on std::mt19937 + std::*_distribution
 * so that simulation results are bit-identical across standard library
 * implementations. Every stochastic component of the simulator takes an
 * explicit Rng (or seed), never hidden global state.
 */

#ifndef DENSIM_UTIL_RNG_HH
#define DENSIM_UTIL_RNG_HH

#include <cstdint>

namespace densim {

/**
 * xoshiro256** pseudo-random generator with distribution helpers.
 *
 * All distribution draws are implemented on top of nextU64() with
 * portable arithmetic only, so a given seed yields the same stream on
 * every platform.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t nextU64();

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, bound) using rejection sampling. */
    std::uint64_t nextBounded(std::uint64_t bound);

    /** Exponentially distributed value with the given mean (> 0). */
    double exponential(double mean);

    /** Standard normal via Marsaglia polar method. */
    double normal();

    /** Normal with given mean and standard deviation. */
    double normal(double mean, double stddev);

    /**
     * Lognormal value parameterized by the *underlying* normal's mu
     * and sigma: exp(mu + sigma * N(0,1)).
     */
    double lognormal(double mu, double sigma);

    /**
     * Complete generator state, exposed for checkpoint/restore. The
     * Marsaglia spare must round-trip too: normal() draws two values
     * per polar step and banks one, so dropping it would desync every
     * stream that has an odd number of normal() calls behind it.
     */
    struct Snapshot
    {
        std::uint64_t state[4]; //!< xoshiro256** words.
        bool hasSpare;          //!< A banked normal() value is pending.
        double spare;           //!< The banked value (when hasSpare).
    };

    /** Capture the full stream position. */
    Snapshot snapshot() const;

    /** Resume exactly at a previously captured position. */
    void restore(const Snapshot &snap);

  private:
    std::uint64_t state_[4];
    bool hasSpare_ = false;
    double spare_ = 0.0;
};

/**
 * Domain-separated stream seed: a SplitMix64 chain over
 * (run_seed, shard_id, stream_tag). Each argument passes through a
 * full avalanche step before the next is folded in, so
 * (seed, shard, tag) triples that differ in any coordinate yield
 * unrelated 64-bit seeds — unlike the engine's historical
 * `seed ^ constant` stream derivation, which two shards could
 * collide by choosing seeds that differ by the constant. Fleet
 * shards derive every per-shard stream through this (stream tags in
 * fleet/fleet_sim.hh), which is what guarantees a shard's workload
 * stream can never alias another shard's — or any shard's fault
 * stream.
 */
std::uint64_t domainSeed(std::uint64_t run_seed, std::uint64_t shard_id,
                         std::uint64_t stream_tag);

} // namespace densim

#endif // DENSIM_UTIL_RNG_HH

#include "util/rng.hh"

#include <cmath>

#include "util/digest.hh"
#include "util/logging.hh"

namespace densim {

namespace {

/** SplitMix64 step, used only to expand seeds. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    return mix64(x);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (auto &word : state_)
        word = splitmix64(s);
}

std::uint64_t
Rng::nextU64()
{
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;

    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);

    return result;
}

double
Rng::nextDouble()
{
    // 53 high bits -> [0, 1) with full double precision.
    return static_cast<double>(nextU64() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * nextDouble();
}

std::uint64_t
Rng::nextBounded(std::uint64_t bound)
{
    if (bound == 0)
        panic("Rng::nextBounded called with bound 0");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
        const std::uint64_t r = nextU64();
        if (r >= threshold)
            return r % bound;
    }
}

double
Rng::exponential(double mean)
{
    if (mean <= 0.0)
        panic("Rng::exponential requires mean > 0, got ", mean);
    double u;
    do {
        u = nextDouble();
    } while (u <= 0.0);
    return -mean * std::log(u);
}

double
Rng::normal()
{
    if (hasSpare_) {
        hasSpare_ = false;
        return spare_;
    }
    double u, v, s;
    do {
        u = 2.0 * nextDouble() - 1.0;
        v = 2.0 * nextDouble() - 1.0;
        s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * factor;
    hasSpare_ = true;
    return u * factor;
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

double
Rng::lognormal(double mu, double sigma)
{
    return std::exp(mu + sigma * normal());
}

Rng::Snapshot
Rng::snapshot() const
{
    Snapshot snap{};
    for (int i = 0; i < 4; ++i)
        snap.state[i] = state_[i];
    snap.hasSpare = hasSpare_;
    snap.spare = spare_;
    return snap;
}

void
Rng::restore(const Snapshot &snap)
{
    for (int i = 0; i < 4; ++i)
        state_[i] = snap.state[i];
    hasSpare_ = snap.hasSpare;
    spare_ = snap.spare;
}

std::uint64_t
domainSeed(std::uint64_t run_seed, std::uint64_t shard_id,
           std::uint64_t stream_tag)
{
    // Chain of SplitMix64 avalanche steps, folding one coordinate in
    // per step. The intermediate state is fully mixed before the next
    // coordinate lands, so no xor/add of the inputs alone can
    // reproduce another triple's output.
    std::uint64_t x = run_seed;
    x = splitmix64(x); // Avalanche the run seed itself.
    x ^= shard_id;
    x = splitmix64(x);
    x ^= stream_tag;
    return splitmix64(x);
}

} // namespace densim

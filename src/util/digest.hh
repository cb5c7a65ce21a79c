/**
 * @file
 * FNV-1a 64-bit hashing for stable run digests, and the SplitMix64
 * finalizer that the RNG seeding and the checkpoint section checksum
 * share.
 *
 * The keep-going experiment harness identifies a grid cell by a
 * digest of (scheduler name, serialized configuration) so a resumed
 * sweep can skip cells that already completed. FNV-1a is portable,
 * dependency-free and stable across platforms — exactly the
 * properties a resume manifest needs (it is *not* cryptographic, and
 * does not need to be).
 */

#ifndef DENSIM_UTIL_DIGEST_HH
#define DENSIM_UTIL_DIGEST_HH

#include <cstdint>
#include <string>
#include <string_view>

namespace densim {

inline constexpr std::uint64_t kFnv1a64Offset =
    1469598103934665603ULL;
inline constexpr std::uint64_t kFnv1a64Prime = 1099511628211ULL;

/** Fold @p data into a running FNV-1a 64 hash @p h. */
inline std::uint64_t
fnv1a64(std::string_view data, std::uint64_t h = kFnv1a64Offset)
{
    for (const char c : data) {
        h ^= static_cast<unsigned char>(c);
        h *= kFnv1a64Prime;
    }
    return h;
}

/**
 * SplitMix64's finalizer: a bijective full avalanche of one word, so
 * a change to any input bit flips each output bit with probability
 * about one half.
 */
inline std::uint64_t
mix64(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** @p h as 16 lowercase hex digits. */
inline std::string
hex64(std::uint64_t h)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[h & 0xf];
        h >>= 4;
    }
    return out;
}

} // namespace densim

#endif // DENSIM_UTIL_DIGEST_HH

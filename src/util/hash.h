/**
 * @file
 * Shared deterministic hashing primitives.
 *
 * Content identity shows up all over the reproduction — the fuzzer
 * fingerprints kernels, dedups corpus entries and names reproducer
 * files by program content, and coverage signatures fold feature
 * sets into stable 64-bit keys. They all need the same property: a hash that is a
 * pure function of explicit field values (never raw struct bytes —
 * padding is indeterminate) and identical across hosts, build types,
 * and thread counts. FNV-1a provides that with no dependencies.
 */

#ifndef SASSI_UTIL_HASH_H
#define SASSI_UTIL_HASH_H

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace sassi {

/** FNV-1a offset basis. */
constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/** FNV-1a prime. */
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

/** Fold a byte range into an FNV-1a state. */
inline uint64_t
fnv1a(const void *data, size_t n, uint64_t h = kFnvBasis)
{
    const auto *p = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

/** Fold a string into an FNV-1a state. */
inline uint64_t
fnv1a(std::string_view s, uint64_t h = kFnvBasis)
{
    return fnv1a(s.data(), s.size(), h);
}

/** Fold one 64-bit value, byte by byte, into an FNV-1a state. */
inline uint64_t
fnv1aU64(uint64_t v, uint64_t h = kFnvBasis)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= kFnvPrime;
    }
    return h;
}

} // namespace sassi

#endif // SASSI_UTIL_HASH_H

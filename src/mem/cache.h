/**
 * @file
 * A trace-driven set-associative cache model and a two-level GPU
 * memory-hierarchy harness (per-SM L1 over a shared L2), the
 * "memory hierarchy simulator" of the paper's §9.4 extension.
 */

#ifndef SASSI_MEM_CACHE_H
#define SASSI_MEM_CACHE_H

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/metrics.h"

namespace sassi::mem {

/** Hit/miss statistics of one cache. */
struct CacheStats
{
    uint64_t accesses = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t writebacks = 0;
    /** Store hits written through to the next level (no-allocate). */
    uint64_t writeThroughs = 0;

    double
    missRate() const
    {
        return accesses ? static_cast<double>(misses) /
                              static_cast<double>(accesses)
                        : 0.0;
    }
};

/** Geometry of one cache. */
struct CacheConfig
{
    uint32_t sizeBytes = 16 * 1024;
    uint32_t lineBytes = 128;
    uint32_t ways = 4;
    bool writeAllocate = false; //!< GPU L1s are typically no-allocate.
};

/** One set-associative, LRU, write-back cache. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /**
     * Access one line.
     *
     * Stores in a write-allocate cache dirty the line (write-back);
     * in a no-allocate cache they leave it clean and are counted as
     * write-throughs — the caller owns forwarding the store to the
     * next level whether it hit or missed here.
     *
     * @param addr Byte address (any address within the line).
     * @param is_store Store access.
     * @return true on hit.
     */
    bool access(uint64_t addr, bool is_store);

    /** @return statistics so far. */
    const CacheStats &stats() const { return stats_; }

    /** Invalidate everything and zero the statistics. */
    void reset();

    /** @return the configuration. */
    const CacheConfig &config() const { return config_; }

  private:
    struct Line
    {
        uint64_t tag = 0;
        bool valid = false;
        bool dirty = false;
        uint64_t lruStamp = 0;
    };

    CacheConfig config_;
    uint32_t num_sets_;
    std::vector<Line> lines_; //!< sets x ways.
    uint64_t tick_ = 0;
    CacheStats stats_;
};

/** One warp-level memory event fed to the hierarchy. */
struct WarpAccess
{
    std::vector<uint64_t> addresses; //!< One per participating thread.
    bool isStore = false;
    uint32_t smId = 0; //!< Which SM's L1 to use.
};

/** L1-per-SM over shared-L2 hierarchy driven by SASSI traces. */
class Hierarchy
{
  public:
    /**
     * @param num_sms Number of per-SM L1 caches.
     * @param l1 L1 geometry.
     * @param l2 L2 geometry.
     */
    Hierarchy(uint32_t num_sms, const CacheConfig &l1,
              const CacheConfig &l2);

    /**
     * Coalesce and run one warp access through the hierarchy.
     * wa.smId must be a valid SM index (panics otherwise).
     */
    void access(const WarpAccess &wa);

    /** @return aggregated L1 statistics across SMs. */
    CacheStats l1Stats() const;

    /** @return the shared L2's statistics. */
    const CacheStats &l2Stats() const { return l2_.stats(); }

    /** @return total line transactions after coalescing. */
    uint64_t transactions() const { return transactions_; }

    /** @return DRAM line fetches (L2 read misses and fills). */
    uint64_t dramAccesses() const { return dram_; }

    /** @return DRAM store lines written through a no-allocate L2. */
    uint64_t dramWrites() const { return dram_writes_; }

    /**
     * Publish the hierarchy's counters and the lanes-per-transaction
     * histogram into a registry under `prefix` (e.g. "mem" yields
     * "mem/l1/hits", "mem/dram/fetches", ...).
     */
    void publish(Metrics &m, std::string_view prefix) const;

  private:
    std::vector<Cache> l1s_;
    Cache l2_;
    uint64_t transactions_ = 0;
    uint64_t dram_ = 0;
    uint64_t dram_writes_ = 0;
    MetricHistogram lanes_per_txn_;
};

} // namespace sassi::mem

#endif // SASSI_MEM_CACHE_H

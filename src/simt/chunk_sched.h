/**
 * @file
 * Work-stealing scheduler over contiguous CTA chunks.
 *
 * A launch splits its grid into contiguous runs of CTA-linear ids
 * ("chunks") and deals them blockwise onto per-worker deques, so a
 * worker that is never robbed executes exactly the ascending CTA
 * range a static partition would have given it (cache-friendly, and
 * byte-for-byte the serial visit order within the chunk). A worker
 * whose deque runs dry steals one chunk from the *back* of a
 * victim's deque — the CTAs furthest from what the victim is
 * currently touching — which is what keeps one long-running CTA
 * from idling every other worker (the static stride sharding this
 * replaces lost to serial on exactly that shape).
 *
 * Determinism does not come from the scheduler: chunk -> CTA-range
 * mapping is a pure function of (total, chunk size), and the
 * executor merges per-chunk statistics in chunk id order, so which
 * worker ran a chunk never shows in a launch result.
 */

#ifndef SASSI_SIMT_CHUNK_SCHED_H
#define SASSI_SIMT_CHUNK_SCHED_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

namespace sassi::simt {

/** A contiguous range [begin, end) of CTA-linear ids. */
struct CtaChunk
{
    uint64_t begin = 0;
    uint64_t end = 0;
};

/** Deals CTA chunks to workers, with steal-on-empty. */
class ChunkScheduler
{
  public:
    /**
     * @param total_ctas CTAs in the grid.
     * @param workers Worker count (chunks are dealt blockwise).
     * @param chunk_ctas CTAs per chunk (the last chunk is shorter
     *        when it does not divide total_ctas).
     */
    ChunkScheduler(uint64_t total_ctas, int workers,
                   uint64_t chunk_ctas);

    /** @return the number of chunks the grid was split into. */
    uint32_t chunkCount() const { return chunk_count_; }

    /** @return the CTA range of a chunk id. */
    CtaChunk
    chunk(uint32_t id) const
    {
        uint64_t begin = static_cast<uint64_t>(id) * chunk_ctas_;
        uint64_t end = begin + chunk_ctas_;
        return {begin, end < total_ctas_ ? end : total_ctas_};
    }

    /**
     * Claim the next chunk for `worker`: the front of its own deque,
     * else one stolen from the back of the first non-empty victim.
     * @return false when every deque is empty (all chunks claimed —
     *         not necessarily finished).
     */
    bool next(int worker, uint32_t &chunk_id);

    /** Successful steals so far (diagnostic; timing-dependent, so
     *  callers must never fold it into launch results). */
    uint64_t
    steals() const
    {
        return steals_.load(std::memory_order_relaxed);
    }

    /**
     * Default chunk size: aim for several chunks per worker so
     * stealing has grain to work with, capped so huge grids still
     * get sub-millisecond-ish steal quanta, floored at one CTA.
     */
    static uint64_t defaultChunkCtas(uint64_t total_ctas, int workers);

  private:
    /**
     * One worker's deque. The dealt chunk ids are contiguous, so the
     * deque is just the live window [head, tail): the owner pops
     * head++, a thief pops --tail. One mutex per deque — taken once
     * per *chunk*, not per CTA, so it is nowhere near any hot path —
     * keeps owner/thief handoff trivially correct (and visible to
     * TSan as a lock, not a lock-free puzzle).
     */
    struct alignas(64) Deque
    {
        std::mutex m;
        uint32_t head = 0;
        uint32_t tail = 0;
    };

    uint64_t total_ctas_;
    uint64_t chunk_ctas_;
    uint32_t chunk_count_;
    std::vector<Deque> deques_;
    std::atomic<uint64_t> steals_{0};
};

} // namespace sassi::simt

#endif // SASSI_SIMT_CHUNK_SCHED_H

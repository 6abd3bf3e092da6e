#include "simt/chunk_sched.h"

#include <algorithm>

namespace sassi::simt {

ChunkScheduler::ChunkScheduler(uint64_t total_ctas, int workers,
                               uint64_t chunk_ctas)
    : total_ctas_(total_ctas),
      chunk_ctas_(std::max<uint64_t>(chunk_ctas, 1))
{
    uint64_t chunks =
        (total_ctas_ + chunk_ctas_ - 1) / chunk_ctas_;
    chunk_count_ = static_cast<uint32_t>(chunks);
    int n = std::max(workers, 1);
    deques_ = std::vector<Deque>(static_cast<size_t>(n));

    // Deal blockwise: worker w owns chunk ids [w*per+min(w,extra),
    // ...), i.e. the same contiguous CTA span a static contiguous
    // partition would give it.
    uint32_t per = chunk_count_ / static_cast<uint32_t>(n);
    uint32_t extra = chunk_count_ % static_cast<uint32_t>(n);
    uint32_t next = 0;
    for (int w = 0; w < n; ++w) {
        uint32_t take = per + (static_cast<uint32_t>(w) < extra);
        deques_[static_cast<size_t>(w)].head = next;
        deques_[static_cast<size_t>(w)].tail = next + take;
        next += take;
    }
}

bool
ChunkScheduler::next(int worker, uint32_t &chunk_id)
{
    size_t self = static_cast<size_t>(worker);
    {
        Deque &d = deques_[self];
        std::lock_guard<std::mutex> lock(d.m);
        if (d.head < d.tail) {
            chunk_id = d.head++;
            return true;
        }
    }
    // Steal: scan the other deques once. Work only ever drains, so
    // one failed sweep means every chunk has been claimed.
    size_t n = deques_.size();
    for (size_t i = 1; i < n; ++i) {
        Deque &v = deques_[(self + i) % n];
        std::lock_guard<std::mutex> lock(v.m);
        if (v.head < v.tail) {
            chunk_id = --v.tail;
            steals_.fetch_add(1, std::memory_order_relaxed);
            return true;
        }
    }
    return false;
}

uint64_t
ChunkScheduler::defaultChunkCtas(uint64_t total_ctas, int workers)
{
    uint64_t w = static_cast<uint64_t>(std::max(workers, 1));
    // ~8 chunks per worker balances steal grain against per-chunk
    // bookkeeping; the 256-CTA cap keeps steal quanta small on huge
    // grids.
    uint64_t c = total_ctas / (w * 8);
    return std::clamp<uint64_t>(c, 1, 256);
}

} // namespace sassi::simt

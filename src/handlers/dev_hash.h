/**
 * @file
 * A device-memory hash table for instrumentation handlers.
 *
 * The paper's per-branch and value-profiling handlers "find the
 * instruction's counters in a hash table based on its address"
 * (Figure 4 line 23, Figure 9). This is that hash table: open
 * addressing over device global memory, insertion races resolved
 * with atomicCAS, payload updates with device atomics — all through
 * the same simulated-memory path the handlers use for counters. The
 * host side collects entries in the CUPTI kernel-exit callback.
 */

#ifndef SASSI_HANDLERS_DEV_HASH_H
#define SASSI_HANDLERS_DEV_HASH_H

#include <cstdint>
#include <vector>

#include "simt/device.h"

namespace sassi::handlers {

/**
 * Fixed-capacity open-addressing hash table in device memory.
 * Keys are non-zero int32 (instruction addresses); each entry owns
 * payload_words 64-bit counters, zero-initialized.
 */
class DevHashTable
{
  public:
    /**
     * Allocate the table in device memory.
     *
     * @param dev Owning device.
     * @param capacity Number of slots (use >= 2x expected keys).
     * @param payload_words 64-bit payload words per entry.
     */
    DevHashTable(simt::Device &dev, uint32_t capacity,
                 uint32_t payload_words);

    /**
     * Device-side find-or-insert; call from handler code only.
     * @return the device address of the entry's payload word 0.
     */
    uint64_t findOrInsert(int32_t key) const;

    /** Host-side view of one occupied entry. */
    struct Entry
    {
        int32_t key;
        std::vector<uint64_t> payload;
    };

    /** Host-side: read back every occupied entry. */
    std::vector<Entry> collect() const;

    /** Host-side: zero the whole table. */
    void clear();

    /** @return slot capacity. */
    uint32_t capacity() const { return capacity_; }

  private:
    uint64_t slotAddr(uint32_t slot) const;

    simt::Device &dev_;
    uint32_t capacity_;
    uint32_t payload_words_;
    uint32_t slot_bytes_;
    uint64_t base_;
};

} // namespace sassi::handlers

#endif // SASSI_HANDLERS_DEV_HASH_H

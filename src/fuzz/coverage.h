/**
 * @file
 * Coverage signatures and the campaign coverage set.
 *
 * Coverage guidance needs a notion of "this program exercised
 * something new" that is (a) deterministic — the same program always
 * yields the same signature, so campaigns stay bit-identical across
 * worker counts — and (b) coarse enough to collide: if every program
 * were unique, guidance would degenerate into counting iterations.
 * A program's signature combines four abstractions:
 *
 *  - **CFG shape**: a canonical hash of the kernel's basic-block
 *    adjacency (block ids and successor edges only — no instruction
 *    contents, no block lengths), so structurally equal programs
 *    share a shape no matter what straight-line code fills them;
 *  - **opcode pairs**: the set of static (op, next-op) bigrams
 *    within basic blocks — the "new-opcode-pair tracking" of the
 *    roadmap, and the axis mutation explores beyond the generator's
 *    structured emitters;
 *  - **divergence depth**: the maximum divergence-stack depth the
 *    run observed (from the launch's "simt/divergence/stack_depth"
 *    histogram, which the oracle proves thread-count-invariant);
 *  - **planes**: which executor dispatch planes — generic
 *    interpreter, superblock batches, SIMD lanes, inline (fused)
 *    handler calls, fiber handler calls — any configuration of the
 *    differential sweep actually ran through, fed from the
 *    per-launch DispatchUsage export of the "uop/..." accounting.
 *
 * A CoverageSet holds the union of every signature's *features*
 * (shape, each pair, depth, each plane) as readable strings; its
 * size is the campaign's coverage count and a program is
 * "interesting" (enters the mutation corpus) exactly when it
 * contributes a feature the set has not seen.
 */

#ifndef SASSI_FUZZ_COVERAGE_H
#define SASSI_FUZZ_COVERAGE_H

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "fuzz/program.h"
#include "simt/launch.h"

namespace sassi::fuzz {

/** Executor dispatch planes a run can exercise (bitmask). */
enum Plane : uint32_t {
    PlaneGeneric = 1u << 0,      //!< Per-instruction interpreter.
    PlaneSuperblock = 1u << 1,   //!< Batched superblock uop runs.
    PlaneSimd = 1u << 2,         //!< AVX2 lane-vectorized uops.
    PlaneInlineHandler = 1u << 3,//!< Fused-site inline dispatch.
    PlaneFiberHandler = 1u << 4, //!< Per-lane fiber dispatch.
};

/** @return e.g.\ "generic+superblock+simd" ("none" when empty). */
std::string planeNames(uint32_t planes);

/** @return the feature string of one static bigram, "pair:A>B". */
std::string pairFeature(sass::Opcode a, sass::Opcode b);

/** @return the plane bits one launch exercised. */
uint32_t planesOf(const simt::LaunchResult &r);

/** Deterministic coverage signature of one program evaluation. */
struct CoverageSignature
{
    uint64_t cfgShape = 0;    //!< Canonical CFG-adjacency hash.
    uint64_t opcodePairs = 0; //!< Hash of the static bigram set.
    uint32_t maxDivDepth = 0; //!< Max divergence-stack depth seen.
    uint32_t planes = 0;      //!< Union of Plane bits exercised.

    /** Fold everything into one comparable 64-bit key. */
    uint64_t key() const;

    /** Canonical one-line rendering, e.g.\
     *  "cfg=4f... pairs=9a... depth=2 planes=generic+superblock". */
    std::string describe() const;

    bool
    operator==(const CoverageSignature &o) const
    {
        return cfgShape == o.cfgShape && opcodePairs == o.opcodePairs &&
               maxDivDepth == o.maxDivDepth && planes == o.planes;
    }
};

/**
 * Compute the static half of a program's signature (CFG shape and
 * opcode pairs). maxDivDepth and planes stay zero; the oracle fills
 * them from its sweep.
 */
CoverageSignature staticSignature(const FuzzProgram &p);

/**
 * Append the feature strings of one evaluated program:
 * "shape:<hex>", one "pair:<OP>><OP>" per static bigram,
 * "depth:<n>", and one "plane:<name>" per exercised plane.
 */
void appendFeatures(const FuzzProgram &p, const CoverageSignature &sig,
                    std::vector<std::string> &out);

/**
 * The campaign-global feature set. Features are stored as sorted
 * readable strings so serialization (and the --coverage-out file)
 * doubles as documentation of what a campaign reached.
 */
class CoverageSet
{
  public:
    /** Fold one evaluated program in. @return features added. */
    size_t add(const FuzzProgram &p, const CoverageSignature &sig);

    /** Insert one feature. @return true when it was new. */
    bool addFeature(const std::string &feature);

    /** @return number of distinct features covered. */
    size_t size() const { return features_.size(); }

    /** @return true when a feature is already covered. */
    bool
    covers(const std::string &feature) const
    {
        return features_.count(feature) != 0;
    }

    /** Order-independent hash of the whole set (determinism keys). */
    uint64_t hash() const;

    /** One feature per line, sorted (the --coverage-out format). */
    std::string serialize() const;

    /** Union another set in. */
    void merge(const CoverageSet &o);

  private:
    std::set<std::string> features_;
};

} // namespace sassi::fuzz

#endif // SASSI_FUZZ_COVERAGE_H

/**
 * @file
 * Campaign-level regressions: bit-identical results across worker
 * shard counts (the CampaignDeterminism suite also runs under the
 * TSan preset, where the shards' concurrent oracle launches are the
 * interesting part), coverage-guided mutation beating generator-only
 * sweeps, mismatch triage into buckets with content-hash-keyed
 * reproducers, and the corpus/reproducer file contract.
 *
 * TSan caveat: suites meant for the TSan preset must run the oracle
 * with withTools=false — instrumented configs can dispatch handlers
 * on ucontext fibers, whose stack switching TSan cannot follow.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "fuzz/campaign.h"
#include "fuzz/corpus.h"
#include "sass/instr.h"
#include "sassir/builder.h"
#include "sassir/module.h"
#include "simt/simd/simd_exec.h"

using namespace sassi;
using namespace sassi::fuzz;
using sassi::sass::Opcode;

namespace {

/** A fast uninstrumented campaign configuration. */
CampaignOptions
fastCampaign(uint64_t seed, uint64_t iters, int jobs)
{
    CampaignOptions opt;
    opt.seed = seed;
    opt.iters = iters;
    opt.jobs = jobs;
    opt.minimize = false;
    opt.oracle.withTools = false;
    opt.oracle.threadCounts = {1, 2};
    return opt;
}

TEST(CampaignDeterminism, ResultsAreIdenticalAcrossJobCounts)
{
    // The pinned property: for a fixed seed, corpus, coverage, and
    // buckets are bit-identical no matter how many shards ran. 80
    // iterations cross two round boundaries (roundSize 32), so the
    // round snapshot discipline is exercised, and the two-worker
    // oracle sweep makes every shard drive the executor thread pool
    // concurrently — the contended path TSan needs to see.
    CampaignResult one = runCampaign(fastCampaign(7, 80, 1));
    ASSERT_GT(one.coverage.size(), 0u);
    ASSERT_GT(one.corpus.size(), 0u);
    EXPECT_EQ(one.itersPlanned, 80u);
    EXPECT_GT(one.mutated, 0u);

    for (int jobs : {2, 8}) {
        CampaignResult many = runCampaign(fastCampaign(7, 80, jobs));
        EXPECT_EQ(many.corpusHash(), one.corpusHash()) << jobs;
        EXPECT_EQ(many.coverage.hash(), one.coverage.hash()) << jobs;
        EXPECT_EQ(many.coverage.size(), one.coverage.size()) << jobs;
        EXPECT_EQ(many.bucketsKey(), one.bucketsKey()) << jobs;
        EXPECT_EQ(many.executed, one.executed) << jobs;
        EXPECT_EQ(many.dedupSkipped, one.dedupSkipped) << jobs;
        EXPECT_EQ(many.generated, one.generated) << jobs;
        EXPECT_EQ(many.mutated, one.mutated) << jobs;
        EXPECT_EQ(many.featuresFromMutation, one.featuresFromMutation)
            << jobs;
        EXPECT_EQ(many.featuresFromGeneration,
                  one.featuresFromGeneration)
            << jobs;
    }
}

TEST(CampaignDeterminism, CorpusEntriesEarnedTheirAdmission)
{
    CampaignResult res = runCampaign(fastCampaign(7, 64, 2));
    ASSERT_GT(res.corpus.size(), 0u);
    for (const auto &[hash, entry] : res.corpus) {
        EXPECT_EQ(hash, entry.contentHash);
        EXPECT_EQ(hash, programContentHash(entry.program));
        // Admission requires contributing at least one new feature.
        EXPECT_GT(entry.newFeatures, 0u);
    }
    // Dedup means executed + skipped always accounts for the plan.
    EXPECT_EQ(res.executed + res.dedupSkipped, res.itersPlanned);
}

TEST(FuzzCampaign, MutationDiscoversCoverageGenerationAloneMisses)
{
    // The acceptance bar for coverage guidance: at the same seed and
    // iteration budget, a mutating campaign must reach strictly more
    // unique coverage than a generator-only sweep. Oracle thread
    // sweep {1} keeps this fast enough for tier-1.
    CampaignOptions opt = fastCampaign(1, 500, 1);
    opt.oracle.threadCounts = {1};
    CampaignResult guided = runCampaign(opt);
    opt.mutate = false;
    CampaignResult plain = runCampaign(opt);

    EXPECT_GT(guided.coverage.size(), plain.coverage.size());
    EXPECT_GT(guided.featuresFromMutation, 0u);
    EXPECT_EQ(plain.featuresFromMutation, 0u);
    EXPECT_EQ(plain.mutated, 0u);
}

TEST(FuzzCampaign, SeedOneCampaignCountsAreExact)
{
    // The campaign's outcome pinned as exact counts: the seed-1,
    // 300-iteration, one-shard, uninstrumented campaign that
    // `sassi_fuzz --seed 1 --iters 300 --jobs 1 --no-tools --threads
    // 1` runs. Any change to the generator, the mutator, coverage
    // extraction or corpus admission moves these numbers; when such
    // a change is intended, update them from that command's summary
    // (docs/TESTING.md).
    CampaignOptions opt = fastCampaign(1, 300, 1);
    opt.oracle.threadCounts = {1};
    CampaignResult res = runCampaign(opt);

    EXPECT_EQ(res.mismatches, 0u);
    EXPECT_EQ(res.invalid, 0u);
    EXPECT_EQ(res.passes, res.executed);
    // Coverage records the executor planes a program ran on, so the
    // corpus (and with it what mutation draws and dedup skips)
    // depends on whether the AVX2 tier exists; the pinned values
    // come from an AVX2 host.
    if (!simt::simd::cpuHasAvx2())
        GTEST_SKIP() << "counts pinned on an AVX2 host";
    EXPECT_EQ(res.executed, 300u);
    EXPECT_EQ(res.passes, 300u);
    EXPECT_EQ(res.coverage.size(), 547u);
    EXPECT_EQ(res.corpus.size(), 175u);
    EXPECT_EQ(res.corpusHash(), 0x0a9d0f40f974da73ull);
}

/** Mis-compile a data-pool ALU immediate, but only under the
 *  superblock fast path — a stand-in for a real executor bug that
 *  generated programs hit with high probability. */
void
breakDataAluUnderSuperblocks(ir::Module &m, const OracleConfig &cfg)
{
    if (cfg.superblocks != 1)
        return;
    for (auto &k : m.kernels)
        for (auto &ins : k.code) {
            bool alu = ins.op == Opcode::IADD ||
                       ins.op == Opcode::IMUL || ins.op == Opcode::LOP;
            if (alu && !ins.synthetic && ins.bIsImm && ins.dst >= 16 &&
                ins.dst <= 23) {
                ++ins.imm;
                return;
            }
        }
}

TEST(FuzzCampaign, MismatchesLandInBucketsWithReproducers)
{
    std::string dir = ::testing::TempDir() + "sassi-campaign-repro";
    std::filesystem::remove_all(dir);

    CampaignOptions opt = fastCampaign(3, 8, 2);
    opt.oracle.threadCounts = {1};
    opt.oracle.moduleTweak = breakDataAluUnderSuperblocks;
    opt.reproDir = dir;
    opt.minimize = true;
    opt.minimizeProbes = 150; // Keep the ddmin pass cheap here.
    // Generated programs retire a few thousand instructions; ddmin
    // candidates that unbound a loop would otherwise burn the full
    // default watchdog budget on every probe.
    opt.oracle.watchdog = 200'000;
    CampaignResult res = runCampaign(opt);

    ASSERT_GT(res.mismatches, 0u);
    ASSERT_FALSE(res.buckets.empty());
    for (const auto &[bucket, fb] : res.buckets) {
        // The triage key pins the invariant kind, tool, and dispatch
        // mode of the offending config; the seeded bug only fires
        // under superblocks in the uninstrumented sweep.
        EXPECT_NE(bucket.find(":none:"), std::string::npos) << bucket;
        EXPECT_NE(bucket.find("sb=1"), std::string::npos) << bucket;
        EXPECT_GT(fb.count, 0u);
        EXPECT_FALSE(fb.message.empty());
        // Each bucket's first failure was written, content-keyed.
        ASSERT_FALSE(fb.reproPath.empty());
        EXPECT_TRUE(std::filesystem::exists(fb.reproPath))
            << fb.reproPath;
        FuzzProgram repro = loadProgram(fb.reproPath);
        EXPECT_EQ(reproducerPath(dir, repro), fb.reproPath);
    }
    std::filesystem::remove_all(dir);
}

TEST(FuzzCampaign, ResolveFuzzJobsPrefersExplicitThenEnv)
{
    unsetenv("SASSI_FUZZ_JOBS");
    EXPECT_EQ(resolveFuzzJobs(3), 3);
    EXPECT_EQ(resolveFuzzJobs(0), 1);
    setenv("SASSI_FUZZ_JOBS", "6", 1);
    EXPECT_EQ(resolveFuzzJobs(0), 6);
    EXPECT_EQ(resolveFuzzJobs(2), 2); // Explicit beats environment.
    setenv("SASSI_FUZZ_JOBS", "junk", 1);
    EXPECT_EQ(resolveFuzzJobs(0), 1);
    unsetenv("SASSI_FUZZ_JOBS");
}

TEST(ReproducerFiles, ContentHashIgnoresProvenance)
{
    FuzzProgram p = generateProgram(3, 0);
    FuzzProgram q = p;
    q.seed = 999;
    q.index = 424242;
    // Same behavior, different campaign provenance: one identity.
    EXPECT_EQ(programContentHash(p), programContentHash(q));

    FuzzProgram r = generateProgram(3, 1);
    EXPECT_NE(programContentHash(p), programContentHash(r));
    FuzzProgram s = p;
    s.inputSeed ^= 1; // Input fill is behavior, so it is identity.
    EXPECT_NE(programContentHash(p), programContentHash(s));
}

/** mov; iadd; imul; exit, with a seed-dependent immediate. */
ir::Kernel
straightKernel(int32_t seed)
{
    ir::KernelBuilder kb("fp");
    kb.mov32i(4, seed);
    kb.iadd(5, 4, 4);
    kb.imul(6, 5, 4);
    kb.exit();
    return kb.finish();
}

TEST(ReproducerFiles, KernelFingerprintIsContentSensitive)
{
    ir::Kernel a = straightKernel(7);
    EXPECT_EQ(kernelFingerprint(a), kernelFingerprint(straightKernel(7)));

    // Any instruction-field change must change the print.
    EXPECT_NE(kernelFingerprint(a), kernelFingerprint(straightKernel(8)));

    // So must a metadata change with identical code.
    ir::Kernel d = straightKernel(7);
    d.numRegs += 1;
    EXPECT_NE(kernelFingerprint(a), kernelFingerprint(d));
}

TEST(ReproducerFiles, ContentKeyedPathsCannotCollide)
{
    std::string dir = ::testing::TempDir() + "sassi-repro-files";
    std::filesystem::remove_all(dir);

    FuzzProgram p = generateProgram(4, 0);
    FuzzProgram q = generateProgram(4, 1);
    ASSERT_NE(programContentHash(p), programContentHash(q));

    // Distinct content diverges to distinct files — the historical
    // seed/index-named scheme raced two failures onto one path.
    std::string pPath = saveReproducer(p, dir);
    std::string qPath = saveReproducer(q, dir);
    EXPECT_NE(pPath, qPath);
    EXPECT_EQ(pPath, reproducerPath(dir, p));
    EXPECT_EQ(listCorpus(dir).size(), 2u);

    // Equal content converges to one file, idempotently: a rewrite
    // under a different provenance leaves the original untouched.
    FuzzProgram p2 = p;
    p2.seed = 77;
    p2.index = 5;
    EXPECT_EQ(saveReproducer(p2, dir), pPath);
    EXPECT_EQ(listCorpus(dir).size(), 2u);
    EXPECT_EQ(formatProgram(loadProgram(pPath)), formatProgram(p));

    std::filesystem::remove_all(dir);
}

} // namespace

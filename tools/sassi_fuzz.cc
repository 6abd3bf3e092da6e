/**
 * @file
 * sassi_fuzz: the coverage-guided differential fuzzing driver.
 *
 * Runs worker-sharded campaigns (src/fuzz/campaign.h): constrained
 * random SASS programs plus purity-preserving mutations of
 * interesting corpus entries, each checked across the full
 * configuration matrix by the differential oracle (src/fuzz/oracle.h).
 * Mismatches are triaged into buckets; each bucket's first failure is
 * minimized and written as a content-hash-keyed replayable
 * reproducer. Campaign results are bit-identical for a given seed
 * regardless of --jobs.
 *
 * Usage:
 *   sassi_fuzz [--seed S] [--iters N] [--jobs J] [--out DIR]
 *              [--threads LIST] [--coverage-out FILE]
 *              [--no-minimize] [--no-tools] [--no-mutate] [--gate]
 *              [--emit-corpus DIR] [--replay FILE...]
 *
 *   --seed S        campaign seed (default 1)
 *   --iters N       programs to evaluate (default 25); 0 reads the
 *                   SASSI_FUZZ_ITERS environment variable and exits
 *                   with code 77 (the ctest skip code) when unset —
 *                   this is how the fuzz-long target stays opt-in
 *   --jobs J        campaign worker shards (default: SASSI_FUZZ_JOBS
 *                   when set, else 1)
 *   --out DIR       where minimized reproducers land
 *                   (default fuzz-corpus)
 *   --threads LIST  comma-separated oracle worker-thread sweep
 *                   (default 1,2,8)
 *   --coverage-out FILE  campaign mode: write the coverage feature
 *                   set; replay mode: write per-file coverage
 *                   signatures (the coverage-replay baseline)
 *   --no-minimize   write unshrunk failing programs instead
 *   --no-tools      restrict the matrix to uninstrumented configs
 *   --no-mutate     disable corpus mutation (generator-only)
 *   --gate          measure the jobs=1 -> jobs=J speedup (J
 *                   defaults to min(8, hardware threads)) and fail
 *                   below 0.5 * J or when the two campaigns'
 *                   results differ; exits 77 on a single-threaded
 *                   host
 *   --emit-corpus DIR  write the generated programs as corpus files
 *                   without running the oracle (seeding a corpus)
 *   --replay FILE   replay corpus files through the oracle instead
 *                   of generating; every later argument is a file
 *
 * Exit codes: 0 no mismatch, 1 mismatches found (reproducer paths
 * are printed), 2 usage error, 77 skipped.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/gate_timing.h"
#include "fuzz/campaign.h"
#include "fuzz/corpus.h"
#include "fuzz/generator.h"
#include "fuzz/minimizer.h"
#include "fuzz/oracle.h"
#include "simt/simd/simd_exec.h"

using namespace sassi;
using namespace sassi::fuzz;

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage: sassi_fuzz [--seed S] [--iters N] [--jobs J]"
        " [--out DIR] [--threads LIST]\n"
        "                  [--coverage-out FILE] [--no-minimize]"
        " [--no-tools] [--no-mutate]\n"
        "                  [--gate] [--emit-corpus DIR]"
        " [--replay FILE...]\n");
    return 2;
}

std::vector<int>
parseThreadList(const char *s)
{
    std::vector<int> out;
    for (const char *p = s; *p;) {
        char *end = nullptr;
        long v = std::strtol(p, &end, 10);
        if (end == p || v <= 0) {
            std::fprintf(stderr, "bad --threads list '%s'\n", s);
            std::exit(2);
        }
        out.push_back(static_cast<int>(v));
        p = (*end == ',') ? end + 1 : end;
    }
    if (out.empty()) {
        std::fprintf(stderr, "empty --threads list\n");
        std::exit(2);
    }
    return out;
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::filesystem::path fp(path);
    if (fp.has_parent_path()) {
        std::error_code ec;
        std::filesystem::create_directories(fp.parent_path(), ec);
    }
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot write '%s'\n", path.c_str());
        std::exit(2);
    }
    out << content;
}

int
replay(const std::vector<std::string> &files,
       const OracleOptions &oracle, const std::string &coverageOut)
{
    int failures = 0;
    std::string signatures =
        std::string("avx2 ") +
        (simt::simd::cpuHasAvx2() ? "1" : "0") + "\n";
    for (const auto &f : files) {
        FuzzProgram prog = loadProgram(f);
        OracleReport report = runOracle(prog, oracle);
        std::printf("%s: %s [%s]\n", f.c_str(),
                    oracleStatusName(report.status),
                    report.coverage.describe().c_str());
        signatures += std::filesystem::path(f).filename().string() +
                      " " + report.coverage.describe() + "\n";
        if (report.status == OracleStatus::Mismatch) {
            std::printf("%s\n", report.message.c_str());
            ++failures;
        }
    }
    if (!coverageOut.empty())
        writeFile(coverageOut, signatures);
    return failures ? 1 : 0;
}

CampaignResult
campaign(CampaignOptions opt, bool quiet)
{
    if (!quiet) {
        opt.progress = [](const std::string &msg) {
            std::printf("%s\n", msg.c_str());
        };
    }
    return runCampaign(opt);
}

void
printSummary(const CampaignResult &res, int jobs)
{
    std::printf(
        "campaign: planned=%llu executed=%llu (dedup=%llu, %.0f%%) "
        "generated=%llu mutated=%llu jobs=%d\n",
        static_cast<unsigned long long>(res.itersPlanned),
        static_cast<unsigned long long>(res.executed),
        static_cast<unsigned long long>(res.dedupSkipped),
        res.dedupRate() * 100.0,
        static_cast<unsigned long long>(res.generated),
        static_cast<unsigned long long>(res.mutated), jobs);
    std::printf(
        "coverage: %zu features (%llu via mutation, %llu via "
        "generation), corpus %zu entries (hash %016llx)\n",
        res.coverage.size(),
        static_cast<unsigned long long>(res.featuresFromMutation),
        static_cast<unsigned long long>(res.featuresFromGeneration),
        res.corpus.size(),
        static_cast<unsigned long long>(res.corpusHash()));
    std::printf(
        "results: pass=%llu mismatch=%llu invalid=%llu "
        "(%.2f execs/sec over %.2fs)\n",
        static_cast<unsigned long long>(res.passes),
        static_cast<unsigned long long>(res.mismatches),
        static_cast<unsigned long long>(res.invalid),
        res.execsPerSec(), res.wallSeconds);
    for (const auto &[bucket, fb] : res.buckets) {
        std::printf("bucket %s: %llu hit(s), first index %llu\n",
                    bucket.c_str(),
                    static_cast<unsigned long long>(fb.count),
                    static_cast<unsigned long long>(fb.firstIndex));
        if (!fb.reproPath.empty())
            std::printf("  reproducer: %s\n", fb.reproPath.c_str());
        else
            std::printf("  %s\n", fb.message.c_str());
    }
}

/**
 * Jobs-scaling gate: execs/sec at J shards vs 1 shard, where J is
 * --jobs or else w = min(8, hardware threads). The sharded campaign
 * must reach 0.5 * J times the serial rate — 4x at 8
 * jobs, 2x at 4 — and every run must produce the same corpus,
 * coverage and buckets. Each side runs kGateReps times, alternating,
 * and the medians are compared, up to kGateAttempts times until one
 * passes (bench/gate_timing.h). Every campaign launches on fresh
 * devices, so both sides compile every program they run.
 */
int
gate(CampaignOptions opt)
{
    unsigned hw = std::thread::hardware_concurrency();
    if (hw < 2) {
        std::printf("gate skipped: %u hardware thread\n", hw);
        return 77;
    }
    const int jobs = opt.jobs > 0 ? opt.jobs : bench::gateWorkers(hw);
    const double minSpeedup = bench::kMinScalingEfficiency * jobs;

    opt.reproDir.clear(); // Measurement runs don't write files.
    opt.minimize = false;
    for (int attempt = 1; attempt <= bench::kGateAttempts; ++attempt) {
        std::vector<double> serialSecs, shardedSecs;
        CampaignResult serial, sharded;
        for (int rep = 0; rep < bench::kGateReps; ++rep) {
            opt.jobs = 1;
            serial = campaign(opt, true);
            opt.jobs = jobs;
            sharded = campaign(opt, true);
            if (serial.corpusHash() != sharded.corpusHash() ||
                serial.coverage.hash() != sharded.coverage.hash() ||
                serial.bucketsKey() != sharded.bucketsKey()) {
                std::printf("gate FAILED: campaign results differ "
                            "across jobs (determinism bug)\n");
                return 1;
            }
            serialSecs.push_back(serial.wallSeconds);
            shardedSecs.push_back(sharded.wallSeconds);
        }
        double execs = static_cast<double>(serial.executed);
        double serialMid = bench::median(serialSecs);
        double shardedMid = bench::median(shardedSecs);
        double speedup = serialMid > 0 && shardedMid > 0
                             ? serialMid / shardedMid
                             : 0.0;
        std::printf("gate: jobs=1 %.2f execs/sec, jobs=%d %.2f "
                    "execs/sec (median of %d, speedup %.2fx, need "
                    "%.2fx)\n",
                    execs / serialMid, jobs, execs / shardedMid,
                    bench::kGateReps, speedup, minSpeedup);
        if (speedup >= minSpeedup) {
            std::printf("gate passed\n");
            return 0;
        }
    }
    std::printf("gate FAILED: speedup below threshold\n");
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    CampaignOptions opt;
    opt.seed = 1;
    opt.iters = 25;
    bool itersExplicit = false;
    bool gateMode = false;
    opt.reproDir = "fuzz-corpus";
    std::string emitDir, coverageOut;
    std::vector<std::string> replayFiles;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--seed") {
            opt.seed = std::strtoull(value(), nullptr, 0);
        } else if (arg == "--iters") {
            opt.iters = std::strtoull(value(), nullptr, 0);
            itersExplicit = true;
        } else if (arg == "--jobs") {
            opt.jobs = std::atoi(value());
        } else if (arg == "--out") {
            opt.reproDir = value();
        } else if (arg == "--threads") {
            opt.oracle.threadCounts = parseThreadList(value());
        } else if (arg == "--coverage-out") {
            coverageOut = value();
        } else if (arg == "--emit-corpus") {
            emitDir = value();
        } else if (arg == "--no-minimize") {
            opt.minimize = false;
        } else if (arg == "--no-tools") {
            opt.oracle.withTools = false;
        } else if (arg == "--no-mutate") {
            opt.mutate = false;
        } else if (arg == "--gate") {
            gateMode = true;
        } else if (arg == "--replay") {
            for (++i; i < argc; ++i)
                replayFiles.push_back(argv[i]);
        } else {
            return usage();
        }
    }

    if (!replayFiles.empty())
        return replay(replayFiles, opt.oracle, coverageOut);

    if (itersExplicit && opt.iters == 0) {
        const char *env = std::getenv("SASSI_FUZZ_ITERS");
        if (!env || !*env) {
            std::printf("SASSI_FUZZ_ITERS not set; skipping\n");
            return 77;
        }
        opt.iters = std::strtoull(env, nullptr, 0);
    }

    if (!emitDir.empty()) {
        for (uint64_t i = 0; i < opt.iters; ++i) {
            FuzzProgram prog = generateProgram(opt.seed, i);
            std::string path = emitDir + "/seed" +
                               std::to_string(opt.seed) + "-" +
                               std::to_string(i) + ".sass";
            saveProgram(prog, path);
            std::printf("wrote %s\n", path.c_str());
        }
        return 0;
    }

    if (gateMode)
        return gate(opt);

    const int jobs = resolveFuzzJobs(opt.jobs);
    CampaignResult res = campaign(opt, false);
    printSummary(res, jobs);

    if (!coverageOut.empty())
        writeFile(coverageOut, res.coverage.serialize());
    return res.mismatches ? 1 : 0;
}

/**
 * @file
 * Corpus replay regression: every reproducer committed under
 * tests/fuzz/corpus/ is re-run through the full differential oracle.
 * Each file is a past failure (minimized) or a pinned generator
 * output; once the underlying bug is fixed the file must pass
 * forever. Each file's coverage signature is additionally pinned
 * against the committed coverage.expected baseline, so signature
 * computation cannot silently drift — a drifted signature would
 * quietly re-shape every campaign's corpus. SASSI_FUZZ_CORPUS_DIR is
 * injected by the build so the test finds the source-tree corpus
 * from any build directory. Each file's content hash is pinned too,
 * since it names reproducer files.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/corpus.h"
#include "fuzz/oracle.h"
#include "simt/simd/simd_exec.h"

using namespace sassi::fuzz;

namespace {

TEST(CorpusReplay, EveryCommittedReproducerPasses)
{
    std::vector<std::string> files = listCorpus(SASSI_FUZZ_CORPUS_DIR);
    ASSERT_FALSE(files.empty())
        << "no corpus files under " << SASSI_FUZZ_CORPUS_DIR;
    for (const auto &f : files) {
        FuzzProgram p = loadProgram(f);
        OracleReport r = runOracle(p);
        EXPECT_EQ(r.status, OracleStatus::Pass)
            << f << ": " << r.message;
    }
}

TEST(CorpusReplay, CorpusFilesAreAFormatFixpoint)
{
    // Committed files stay in canonical form, so diffs on future
    // minimizer changes are meaningful.
    for (const auto &f : listCorpus(SASSI_FUZZ_CORPUS_DIR)) {
        FuzzProgram p = loadProgram(f);
        FuzzProgram q = parseProgram(formatProgram(p));
        EXPECT_EQ(formatProgram(q), formatProgram(p)) << f;
    }
}

TEST(CorpusReplay, ContentHashesArePinned)
{
    // programContentHash names reproducer files and dedups campaign
    // corpora, so its values are part of the corpus format.
    const std::map<std::string, uint64_t> pinned = {
        {"seed1-0.sass", 0xa3ba296099030c32ull},
        {"seed1-1.sass", 0x56585715b4d7ce18ull},
        {"seed1-2.sass", 0x53f051ac8d491c47ull},
        {"seed1-7.sass", 0x189b2f70027a676dull},
    };
    std::vector<std::string> files = listCorpus(SASSI_FUZZ_CORPUS_DIR);
    EXPECT_EQ(files.size(), pinned.size());
    for (const auto &f : files) {
        std::string base = std::filesystem::path(f).filename().string();
        auto it = pinned.find(base);
        ASSERT_NE(it, pinned.end()) << "no pinned hash for " << base;
        EXPECT_EQ(programContentHash(loadProgram(f)), it->second) << f;
    }
}

/** Drop the "simd" token from a describe() line's planes list, so
 *  baselines recorded on an AVX2 host compare on a scalar host (and
 *  vice versa) — the simd plane is the only host-dependent bit. */
std::string
withoutSimdPlane(const std::string &line)
{
    size_t at = line.find("planes=");
    if (at == std::string::npos)
        return line;
    std::string head = line.substr(0, at + 7);
    std::istringstream in(line.substr(at + 7));
    std::string tok, planes;
    while (std::getline(in, tok, '+')) {
        if (tok == "simd")
            continue;
        if (!planes.empty())
            planes += '+';
        planes += tok;
    }
    return head + (planes.empty() ? "none" : planes);
}

TEST(CorpusReplay, CoverageSignaturesMatchCommittedBaseline)
{
    // coverage.expected is regenerated with:
    //   sassi_fuzz --replay tests/fuzz/corpus/*.sass
    //              --coverage-out tests/fuzz/corpus/coverage.expected
    // (one command line).
    std::string path =
        std::string(SASSI_FUZZ_CORPUS_DIR) + "/coverage.expected";
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing baseline " << path;

    std::string header;
    int recordedAvx2 = 0;
    in >> header >> recordedAvx2;
    ASSERT_EQ(header, "avx2") << path;
    bool normalize =
        recordedAvx2 != (sassi::simt::simd::cpuHasAvx2() ? 1 : 0);

    std::map<std::string, std::string> expected;
    std::string line;
    std::getline(in, line); // Finish the header line.
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        size_t sp = line.find(' ');
        ASSERT_NE(sp, std::string::npos) << line;
        expected[line.substr(0, sp)] = line.substr(sp + 1);
    }

    std::vector<std::string> files = listCorpus(SASSI_FUZZ_CORPUS_DIR);
    ASSERT_FALSE(files.empty());
    EXPECT_EQ(files.size(), expected.size())
        << "corpus and coverage.expected disagree; regenerate";
    for (const auto &f : files) {
        std::string base = std::filesystem::path(f).filename().string();
        auto it = expected.find(base);
        ASSERT_NE(it, expected.end())
            << "no recorded signature for " << base << "; regenerate";
        OracleReport r = runOracle(loadProgram(f));
        std::string got = r.coverage.describe();
        std::string want = it->second;
        if (normalize) {
            got = withoutSimdPlane(got);
            want = withoutSimdPlane(want);
        }
        EXPECT_EQ(got, want) << f;
    }
}

} // namespace

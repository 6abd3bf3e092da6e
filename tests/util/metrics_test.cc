/**
 * @file
 * Tests of the metrics registry (worker-sharded determinism, merge
 * semantics, canonical serialization) and a schema check over the
 * Chrome trace_event JSON the timeline emitter writes.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "simt/device.h"
#include "util/metrics.h"
#include "util/trace.h"
#include "workloads/suite.h"

using namespace sassi;

namespace {

TEST(Metrics, CounterAndHistogramBasics)
{
    Metrics m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.counterValue("a/b"), 0u);

    m.inc("a/b");
    m.inc("a/b", 9);
    EXPECT_EQ(m.counterValue("a/b"), 10u);

    // The reference is stable: bump through it after more inserts.
    uint64_t &c = m.counter("a/b");
    m.counter("a/a");
    m.counter("a/z");
    c += 5;
    EXPECT_EQ(m.counterValue("a/b"), 15u);

    MetricHistogram &h = m.histogram("a/h");
    h.observe(0);
    h.observe(1);
    h.observe(7);
    h.observe(1024);
    EXPECT_EQ(h.count, 4u);
    EXPECT_EQ(h.sum, 1032u);
    EXPECT_EQ(h.min, 0u);
    EXPECT_EQ(h.max, 1024u);
    EXPECT_EQ(h.buckets[0], 1u); // the zero
    EXPECT_EQ(h.buckets[1], 1u); // 1
    EXPECT_EQ(h.buckets[3], 1u); // 7 in [4,8)
    EXPECT_EQ(h.buckets[11], 1u); // 1024 in [1024,2048)
}

TEST(Metrics, MergeSumsCountersAndHistograms)
{
    Metrics a, b;
    a.inc("x", 3);
    b.inc("x", 4);
    b.inc("y", 1);
    a.histogram("h").observe(2);
    b.histogram("h").observe(100);

    a.merge(b);
    EXPECT_EQ(a.counterValue("x"), 7u);
    EXPECT_EQ(a.counterValue("y"), 1u);
    const MetricHistogram *h = a.findHistogram("h");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, 2u);
    EXPECT_EQ(h->min, 2u);
    EXPECT_EQ(h->max, 100u);
}

TEST(Metrics, SerializeIsNameOrderedAndInsertionInvariant)
{
    Metrics a;
    a.inc("z/last", 1);
    a.inc("a/first", 2);
    a.histogram("m/h").observe(3);

    Metrics b;
    b.histogram("m/h").observe(3);
    b.inc("a/first", 2);
    b.inc("z/last", 1);

    EXPECT_EQ(a.serialize(), b.serialize());
    std::string s = a.serialize();
    EXPECT_LT(s.find("a/first"), s.find("z/last"));
}

/**
 * Simulate the executor's sharding scheme with real OS threads: 64
 * "CTAs" dealt round-robin to per-worker shards, merged in worker
 * order. The merged registry must be identical at 1, 2, and 8
 * workers. (The TSan preset runs it.)
 */
std::string
runSharded(int workers)
{
    constexpr int Ctas = 64;
    std::vector<Metrics> shards(static_cast<size_t>(workers));
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(workers));
    for (int w = 0; w < workers; ++w) {
        threads.emplace_back([&shards, w, workers] {
            Metrics &m = shards[static_cast<size_t>(w)];
            uint64_t &ctas = m.counter("sim/ctas");
            MetricHistogram &h = m.histogram("sim/per_cta_work");
            for (int cta = w; cta < Ctas; cta += workers) {
                ++ctas;
                uint64_t work =
                    static_cast<uint64_t>(cta) * 37 % 11;
                m.counter("sim/work") += work;
                m.inc("sim/flavor/" + std::to_string(cta % 3));
                h.observe(work);
            }
        });
    }
    for (auto &t : threads)
        t.join();

    Metrics merged;
    for (const Metrics &shard : shards)
        merged.merge(shard);
    return merged.serialize();
}

TEST(MetricsShard, DeterministicAcrossThreadCounts)
{
    std::string ref = runSharded(1);
    EXPECT_FALSE(ref.empty());
    EXPECT_EQ(runSharded(2), ref);
    EXPECT_EQ(runSharded(8), ref);
}

/** Balanced braces/brackets outside string literals. */
bool
balancedJson(const std::string &s)
{
    int depth = 0;
    bool in_str = false;
    for (size_t i = 0; i < s.size(); ++i) {
        char ch = s[i];
        if (in_str) {
            if (ch == '\\')
                ++i;
            else if (ch == '"')
                in_str = false;
            continue;
        }
        if (ch == '"')
            in_str = true;
        else if (ch == '{' || ch == '[')
            ++depth;
        else if (ch == '}' || ch == ']') {
            if (--depth < 0)
                return false;
        }
    }
    return depth == 0 && !in_str;
}

size_t
countOccurrences(const std::string &s, const std::string &needle)
{
    size_t n = 0;
    for (size_t pos = s.find(needle); pos != std::string::npos;
         pos = s.find(needle, pos + needle.size()))
        ++n;
    return n;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(TraceJson, EmitterWritesSchemaValidEvents)
{
    std::string path = ::testing::TempDir() + "sassi_trace_unit.json";
    Trace &t = Trace::global();
    t.begin(path);
    uint64_t t0 = t.nowNs();
    t.complete("kern cta 0", "cta", 0, t0, 1500, {{"cta", 0}});
    t.complete("kern@3 before", "handler", 1, t0 + 200, 40,
               {{"site", 3}, {"lanes", 32}});
    EXPECT_EQ(t.eventCount(), 2u);
    t.end();
    EXPECT_FALSE(t.enabled());

    std::string s = readFile(path);
    ASSERT_FALSE(s.empty());
    EXPECT_EQ(s.front(), '{');
    EXPECT_TRUE(balancedJson(s));
    EXPECT_NE(s.find("\"traceEvents\": ["), std::string::npos);
    // Every event is a complete event with the required keys.
    EXPECT_EQ(countOccurrences(s, "\"ph\": \"X\""), 2u);
    EXPECT_EQ(countOccurrences(s, "\"name\": "), 2u);
    EXPECT_EQ(countOccurrences(s, "\"ts\": "), 2u);
    EXPECT_EQ(countOccurrences(s, "\"dur\": "), 2u);
    EXPECT_EQ(countOccurrences(s, "\"pid\": "), 2u);
    EXPECT_EQ(countOccurrences(s, "\"tid\": "), 2u);
    EXPECT_NE(s.find("\"cat\": \"handler\""), std::string::npos);
}

TEST(TraceJson, LaunchEmitsCtaSpans)
{
    std::string path = ::testing::TempDir() + "sassi_trace_launch.json";
    Trace::global().begin(path);

    simt::Device dev;
    auto w = workloads::makeVecAdd(1024);
    w->setup(dev);
    auto r = w->run(dev);
    ASSERT_TRUE(r.ok()) << r.message;

    Trace::global().end();
    std::string s = readFile(path);
    ASSERT_FALSE(s.empty());
    EXPECT_TRUE(balancedJson(s));
    // The executor recorded one span per CTA.
    EXPECT_EQ(countOccurrences(s, "\"cat\": \"cta\""),
              static_cast<size_t>(r.stats.ctas));
    EXPECT_NE(s.find("\"warp_instrs\""), std::string::npos);
}

TEST(LaunchMetrics, RegistryMatchesLaunchStats)
{
    simt::Device dev;
    auto w = workloads::makeVecAdd(2048);
    w->setup(dev);
    auto r = w->run(dev);
    ASSERT_TRUE(r.ok()) << r.message;

    EXPECT_EQ(r.metrics.counterValue("simt/ctas"), r.stats.ctas);
    EXPECT_EQ(r.metrics.counterValue("simt/warp_instrs"),
              r.stats.warpInstrs);
    EXPECT_EQ(r.metrics.counterValue("simt/thread_instrs"),
              r.stats.threadInstrs);
    const MetricHistogram *per_cta =
        r.metrics.findHistogram("simt/cta/warp_instrs");
    ASSERT_NE(per_cta, nullptr);
    EXPECT_EQ(per_cta->count, r.stats.ctas);
    EXPECT_EQ(per_cta->sum, r.stats.warpInstrs);
    // The device accumulates launch registries.
    EXPECT_EQ(dev.metrics().counterValue("simt/warp_instrs"),
              dev.totalStats().warpInstrs);
}

} // namespace

/**
 * @file
 * In-memory span recording for the benchmark's traced runs.
 *
 * A span times one public call into a layer (device creation,
 * workload setup, the SASSI pass, tool attach, a kernel launch seen
 * through CUPTI, ...). Spans nest on a stack, every span of one op
 * shares the op's id, and nothing is written until the run ends, when
 * the log becomes a Chrome trace_event file and a per-layer self-time
 * table. When the log is disabled a Span costs one branch.
 */

#ifndef SASSI_PERFBENCH_SPANS_H
#define SASSI_PERFBENCH_SPANS_H

#include <cstdint>
#include <string>
#include <vector>

namespace sassibench {

/** One closed span. */
struct SpanRecord
{
    const char *name = "";  //!< The call, e.g.\ "instrument".
    const char *layer = ""; //!< The module it enters, e.g.\ "core".
    uint64_t op = 0;        //!< Id of the op the span belongs to.
    int parent = -1;        //!< Index of the enclosing span; -1 = root.
    int64_t startNs = 0;    //!< Since the log was enabled.
    int64_t endNs = 0;

    double ms() const { return static_cast<double>(endNs - startNs) * 1e-6; }
};

/** Time one layer spent, summed over its spans. */
struct LayerTime
{
    std::string layer;
    uint64_t calls = 0;
    double totalMs = 0;
    double selfMs = 0; //!< Total minus the time child spans cover.
};

/** The process-wide span log (single-threaded use only). */
class SpanLog
{
  public:
    static SpanLog &global();

    /** Start the clock and record from now on. */
    void enable();

    /** Pause (false) or resume (true) recording after enable(). */
    void setEnabled(bool on) { enabled_ = on; }

    bool enabled() const { return enabled_; }

    /** Start a new op; spans opened until the next call share its id. */
    uint64_t nextOp() { return ++op_; }

    /** @return the id of the most recently started op. */
    uint64_t currentOp() const { return op_; }

    /** Open a span under the innermost open one. @return its index. */
    int open(const char *name, const char *layer);

    /** Close the span open() returned. */
    void close(int index);

    const std::vector<SpanRecord> &spans() const { return spans_; }

    /** Per-layer call counts, total and self time, by layer name. */
    std::vector<LayerTime> layerTimes() const;

    /**
     * Mean over root spans named `root` of ops [firstOp, lastOp] of
     * the share of each root's duration its direct children cover
     * (how much of an op's wall the per-call spans account for).
     */
    double coverage(const char *root, uint64_t firstOp,
                    uint64_t lastOp) const;

    /** Write every span as a Chrome trace_event JSON file. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    int64_t now() const;

    bool enabled_ = false;
    int64_t origin_ = 0;
    uint64_t op_ = 0;
    std::vector<SpanRecord> spans_;
    std::vector<int> stack_;
};

/** RAII span on the global log; a no-op while the log is disabled. */
class Span
{
  public:
    Span(const char *name, const char *layer)
        : index_(SpanLog::global().enabled()
                     ? SpanLog::global().open(name, layer)
                     : -1)
    {}
    ~Span()
    {
        if (index_ >= 0)
            SpanLog::global().close(index_);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    int index_;
};

} // namespace sassibench

#endif // SASSI_PERFBENCH_SPANS_H

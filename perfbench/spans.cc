#include "spans.h"

#include <chrono>
#include <cstdio>
#include <map>
#include <string_view>

namespace sassibench {

SpanLog &
SpanLog::global()
{
    static SpanLog log;
    return log;
}

int64_t
SpanLog::now() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
               .count() -
           origin_;
}

void
SpanLog::enable()
{
    enabled_ = true;
    origin_ = 0;
    origin_ = now();
}

int
SpanLog::open(const char *name, const char *layer)
{
    SpanRecord r;
    r.name = name;
    r.layer = layer;
    r.op = op_;
    r.parent = stack_.empty() ? -1 : stack_.back();
    r.startNs = now();
    spans_.push_back(r);
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
}

void
SpanLog::close(int index)
{
    spans_[static_cast<size_t>(index)].endNs = now();
    if (!stack_.empty() && stack_.back() == index)
        stack_.pop_back();
}

std::vector<LayerTime>
SpanLog::layerTimes() const
{
    std::vector<double> childMs(spans_.size(), 0.0);
    for (const SpanRecord &s : spans_)
        if (s.parent >= 0)
            childMs[static_cast<size_t>(s.parent)] += s.ms();
    std::map<std::string, LayerTime> byLayer;
    for (size_t i = 0; i < spans_.size(); ++i) {
        LayerTime &t = byLayer[spans_[i].layer];
        t.layer = spans_[i].layer;
        ++t.calls;
        t.totalMs += spans_[i].ms();
        t.selfMs += spans_[i].ms() - childMs[i];
    }
    std::vector<LayerTime> out;
    for (auto &[name, t] : byLayer)
        out.push_back(t);
    return out;
}

double
SpanLog::coverage(const char *root, uint64_t firstOp,
                  uint64_t lastOp) const
{
    std::vector<double> childMs(spans_.size(), 0.0);
    for (const SpanRecord &s : spans_)
        if (s.parent >= 0)
            childMs[static_cast<size_t>(s.parent)] += s.ms();
    double sum = 0;
    size_t roots = 0;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        if (s.parent >= 0 || s.op < firstOp || s.op > lastOp ||
            std::string_view(s.name) != root || s.endNs <= s.startNs)
            continue;
        sum += childMs[i] / s.ms();
        ++roots;
    }
    return roots ? sum / static_cast<double>(roots) : 0;
}

bool
SpanLog::writeChromeTrace(const std::string &path) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fputs("{\"traceEvents\":[\n", f);
    for (size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                     "\"args\":{\"op\":%llu,\"parent\":%d}}\n",
                     i ? "," : "", s.name, s.layer, s.startNs * 1e-3,
                     (s.endNs - s.startNs) * 1e-3,
                     static_cast<unsigned long long>(s.op), s.parent);
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
}

} // namespace sassibench

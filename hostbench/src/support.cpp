/**
 * @file
 * Statistics, the span tracer, and per-layer count folding.
 */
#include <algorithm>
#include <cmath>
#include <fstream>

#include "bench.hpp"

namespace hostbench {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * double(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

void
Tracer::end(std::int32_t index)
{
    spans_[index].endNs = nowNs();
    // Scopes close innermost first, so the closing span is on top.
    open_.pop_back();
}

void
Tracer::derived(std::int32_t parent, const char *name, double ms)
{
    if (!enabled || parent < 0)
        return;
    const Span &p = spans_[parent];
    const auto length = static_cast<std::int64_t>(std::llround(ms * 1e6));
    spans_.push_back({name, p.group, p.startNs, p.startNs + length, parent,
                      true});
}

std::vector<double>
Tracer::selfMs() const
{
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = double(spans_[i].endNs - spans_[i].startNs) * 1e-6;
    for (const Span &s : spans_)
        if (s.parent >= 0)
            self[s.parent] -= double(s.endNs - s.startNs) * 1e-6;
    return self;
}

void
Tracer::write(const fs::path &path) const
{
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << "{\"id\":" << i << ",\"name\":\"" << s.name
            << "\",\"group\":" << s.group << ",\"start_ns\":" << s.startNs
            << ",\"end_ns\":" << s.endNs << ",\"parent\":" << s.parent
            << ",\"derived\":" << (s.derived ? "true" : "false") << '}'
            << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
}

void
LayerCounts::addQuery(const tigr::service::QueryResult &result)
{
    const auto &info = result.info;
    ++queries;
    iterations += info.iterations;
    sparseIterations += info.sparseIterations;
    warps += info.stats.warps;
    launches += info.stats.launches;
    cycles += info.stats.cycles;
    instructions += info.stats.instructions;
    laneSlots += info.stats.laneSlots;
    memAccesses += info.stats.memAccesses;
    memTransactions += info.stats.memTransactions;
    arenaServed += result.arenaServed ? 1 : 0;
}

void
LayerCounts::addMutate(const tigr::service::MutateResult &result)
{
    ++mutates;
    repaired += result.repair.repairedVertices;
    resplits += result.repair.resplitFamilies;
    reverseRepaired += result.reverseRepair.repairedVertices;
    compactions += result.compacted ? 1 : 0;
    const double slots = double(result.liveEdges + result.slackSlots);
    slackRatioSum += slots > 0 ? double(result.slackSlots) / slots : 0.0;
}

} // namespace hostbench

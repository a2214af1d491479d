/**
 * @file
 * Shared machinery of the host-time benchmark: run arguments, the span
 * tracer, latency statistics, seeded inputs, and the Workload interface
 * the three workloads (serve, fresh, churn) implement. The benchmark
 * drives the service only through its public API; every timer lives in
 * these files, none in the program under test.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/csr.hpp"
#include "graph/io.hpp"
#include "graph/types.hpp"
#include "engine/graph_engine.hpp"
#include "service/query_scheduler.hpp"

namespace hostbench {

namespace fs = std::filesystem;
using tigr::EdgeIndex;
using tigr::NodeId;
using tigr::Weight;
using Clock = std::chrono::steady_clock;

/** Command-line arguments of one run. */
struct RunArgs
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Seconds-long sizes for the self-test. */
    bool tiny = false;
    /** Flip one recorded digest before the gates (self-test hook). */
    bool perturbDigest = false;
    /** Scratch directory for snapshots and journals (removed at exit). */
    fs::path workDir;
    /** Where the traced run's spans are written; empty = nowhere. */
    fs::path spansOut;
    /** Source revision label recorded in the context line. */
    std::string rev = "unknown";
};

/** Milliseconds between two clock readings. */
inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Median of @p v (0 for an empty sample). */
double median(std::vector<double> v);

/** Nearest-rank percentile @p p in [0, 100] of @p v (0 when empty). */
double percentile(std::vector<double> v, double p);

/** FNV-1a digest over a value vector's raw bytes — the same witness
 *  QueryResult::digest carries. */
template <typename T>
std::uint64_t
digestOf(const std::vector<T> &values)
{
    return tigr::graph::fnv1a64(values.data(), values.size() * sizeof(T));
}

/** Deterministic splitmix64 stream: identical on every platform, unlike
 *  the standard distributions. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n). */
    std::uint64_t
    below(std::uint64_t n)
    {
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * n) >> 64);
    }

  private:
    std::uint64_t state_;
};

/**
 * @p length entries drawn deck-wise from @p deck: each pass over the
 * deck is a fresh seeded shuffle, so every run's request mix has the
 * deck's composition however long it runs, and only the order and the
 * per-request details vary with the seed.
 */
template <typename T>
std::vector<T>
dealFrom(const std::vector<T> &deck, std::size_t length, Rng &rng)
{
    std::vector<T> out;
    out.reserve(length);
    std::vector<T> hand;
    while (out.size() < length) {
        hand = deck;
        for (std::size_t i = hand.size(); i > 1; --i)
            std::swap(hand[i - 1], hand[rng.below(i)]);
        for (std::size_t i = 0; i < hand.size() && out.size() < length; ++i)
            out.push_back(hand[i]);
    }
    return out;
}

/**
 * Span recorder. A span has a name, a group (one request, or one
 * set-up), start and end, and the span that was open when it began.
 * Spans stay in memory and are written out when the run ends. While
 * disabled, span() records nothing.
 */
class Tracer
{
  public:
    struct Span
    {
        const char *name;
        std::int64_t group;
        std::int64_t startNs;
        std::int64_t endNs;
        std::int32_t parent;
        /** Duration reported by the program (RunInfo::hostMs), placed
         *  at its parent's start: only its length is meaningful. */
        bool derived;
    };

    /** RAII handle closing its span on destruction. */
    class Scope
    {
      public:
        Scope(Tracer *tracer, std::int32_t index)
            : tracer_(tracer), index_(index)
        {
        }
        ~Scope() { close(); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Close early; returns the span index (-1 when disabled). */
        std::int32_t
        close()
        {
            if (tracer_)
                tracer_->end(index_);
            tracer_ = nullptr;
            return index_;
        }

      private:
        Tracer *tracer_;
        std::int32_t index_;
    };

    bool enabled = false;

    /** Open @p name as a child of the innermost open span. */
    Scope
    span(const char *name, std::int64_t group)
    {
        if (!enabled)
            return Scope(nullptr, -1);
        const auto index = static_cast<std::int32_t>(spans_.size());
        spans_.push_back({name, group, nowNs(), 0,
                          open_.empty() ? -1 : open_.back(), false});
        open_.push_back(index);
        return Scope(this, index);
    }

    /** Record a child of @p parent lasting @p ms (program-reported). */
    void derived(std::int32_t parent, const char *name, double ms);

    const std::vector<Span> &spans() const { return spans_; }

    /** Self time (ms) of span @p i: its length minus its children's. */
    std::vector<double> selfMs() const;

    /** Write every span as JSON to @p path. */
    void write(const fs::path &path) const;

  private:
    void end(std::int32_t index);
    std::int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch_)
            .count();
    }

    Clock::time_point epoch_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<std::int32_t> open_;
};

/** Name of the span carrying an analysis's engine time. */
inline const char *
engineSpanName(tigr::engine::Algorithm algorithm)
{
    static const char *const names[] = {"engine.bfs", "engine.sssp",
                                        "engine.sswp", "engine.cc",
                                        "engine.pr", "engine.bc"};
    return names[static_cast<int>(algorithm)];
}

/** Group id of set-up number @p k (request groups are 0, 1, 2, ...). */
inline std::int64_t
setupGroup(int k)
{
    return -1 - k;
}

/** One printed metric. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Correctness-gate bookkeeping: every failed check is kept. */
struct Gates
{
    std::vector<std::string> failures;
    std::size_t checks = 0;

    void
    check(bool ok, const std::string &what)
    {
        ++checks;
        if (!ok)
            failures.push_back(what);
    }
};

/** Per-layer values a workload contributes beyond the span timings. */
struct LayerCounts
{
    // engine + sim, summed over the traced pass's queries
    std::uint64_t queries = 0;
    std::uint64_t iterations = 0;
    std::uint64_t sparseIterations = 0;
    std::uint64_t warps = 0;
    std::uint64_t launches = 0;
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t laneSlots = 0;
    std::uint64_t memAccesses = 0;
    std::uint64_t memTransactions = 0;
    std::uint64_t arenaServed = 0;
    // dynamic, summed over the traced pass's mutate() calls
    std::uint64_t mutates = 0;
    std::uint64_t repaired = 0;
    std::uint64_t resplits = 0;
    std::uint64_t reverseRepaired = 0;
    std::uint64_t compactions = 0;
    double slackRatioSum = 0.0;
    // journal + recovery
    std::uint64_t journalBytes = 0;
    std::uint64_t journaledMutations = 0;
    std::uint64_t recordsReplayed = 0;
    std::vector<double> recoveryOpenMs;
    // snapshot bytes loaded per set-up
    std::uint64_t snapshotBytes = 0;

    /** Fold one query's engine metadata in. */
    void addQuery(const tigr::service::QueryResult &result);
    /** Fold one mutate() result in. */
    void addMutate(const tigr::service::MutateResult &result);
};

/**
 * One workload. The runner calls prepare() once (untimed input
 * generation), setup() several times (timed: each replaces the live
 * session with a fresh one), request() in a closed loop, and gates()
 * after every timed phase. request() returns false for a failed,
 * rejected or deadline-exceeded operation.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Generate every input from the seed. */
    virtual void prepare() = 0;
    /** Build a fresh session from an empty store; returns the seconds
     *  from the empty store to ready (untimed file staging excluded). */
    virtual double setup(Tracer &tracer, std::int64_t group) = 0;
    /** Run request @p i of the pre-generated sequence. The pass index
     *  (0 = untraced, 1 = traced) keys the recorded results. */
    virtual bool request(std::size_t i, int pass, Tracer &tracer) = 0;
    /** Requests the pre-generated sequence can serve. */
    virtual std::size_t capacity() const = 0;
    /** True once a time-bounded loop may stop after @p done requests
     *  (churn stops at a fixed offset after a checkpoint, so recovery
     *  always replays the same journal tail). */
    virtual bool mayStop(std::size_t done) const
    {
        (void)done;
        return true;
    }
    /** Fixed request count of the traced run (a function of the run
     *  length only, so per-layer counts repeat exactly). */
    virtual std::size_t tracedRequests(double seconds) const = 0;
    /** Cache counters now (deltas around the traced pass). */
    virtual tigr::service::TransformCacheStats cacheStats() const = 0;
    /** Correctness gates over the pass(es) run so far (churn also
     *  fills the recovery fields of `counts` here). */
    virtual void gates(Gates &gates, bool traced, bool perturb) = 0;
    /** Graph sizes etc. for the context line (a JSON object body). */
    virtual std::string describe() const = 0;
    /** Per-layer counts gathered by the traced pass. */
    LayerCounts counts;
};

std::unique_ptr<Workload> makeServe(const RunArgs &args);
std::unique_ptr<Workload> makeFresh(const RunArgs &args);
std::unique_ptr<Workload> makeChurn(const RunArgs &args);

// ---- shared input helpers (inputs.cpp) -----------------------------

/** Per-vertex edge lists, the benchmark's shadow form of a graph. */
using Adjacency = std::vector<std::vector<std::pair<NodeId, Weight>>>;

/** Weighted undirected power-law RMAT graph (about 16 directed edges
 *  per node). */
tigr::graph::Csr makeRmat(NodeId nodes, std::uint64_t seed);
/** Weighted 2-D grid: max degree 4, below any degree bound K >= 4. */
tigr::graph::Csr makeGrid(NodeId side, std::uint64_t seed);

Adjacency toAdjacency(const tigr::graph::Csr &graph);
/** Dense CSR of @p base with @p extra's edges appended per source. */
tigr::graph::Csr rebuild(const Adjacency &base, const Adjacency *extra);

/** Write @p graph with its K=10 virtual section as a snapshot. */
void writeSnapshot(const tigr::graph::Csr &graph, const fs::path &path);

/** @p count distinct vertices of outdegree >= 1, seeded. */
std::vector<NodeId> pickSources(const tigr::graph::Csr &graph,
                                std::size_t count, std::uint64_t seed);

/**
 * A cyclic mutation stream. Set j holds edges absent from the base
 * graph and from every other set; batch b deletes set (b-1) mod C and
 * inserts set b mod C, shuffled together. The graph after batch b is
 * therefore exactly base ++ set(b mod C), so the shadow at any epoch is
 * rebuilt without replaying the stream, and live size stays level.
 * The snapshot the stream starts from holds base ++ set(C-1).
 */
struct CyclicStream
{
    Adjacency base;
    std::vector<Adjacency> sets;
    std::vector<tigr::dynamic::MutationBatch> batches;

    /** Dense graph after global batch @p b (b = -1: the start). */
    tigr::graph::Csr graphAfter(std::int64_t b) const;
    const tigr::dynamic::MutationBatch &
    batch(std::size_t b) const
    {
        return batches[b % batches.size()];
    }
};

/**
 * Build a cyclic stream of @p sets sets of @p per_set edges over
 * @p graph. @p pick(j, k, rng) names the source of the k-th insert of
 * set j; targets are uniform.
 */
CyclicStream makeCyclicStream(
    const tigr::graph::Csr &graph, std::size_t sets, std::size_t per_set,
    std::uint64_t seed,
    const std::function<NodeId(std::size_t, std::size_t, Rng &)> &pick);

/** Engine options the scheduler uses for @p spec (1 thread). */
tigr::engine::EngineOptions engineOptionsFor(
    const tigr::service::QuerySpec &spec);

/** Run @p spec on @p engine (a GraphEngine or an ArenaEngine) and
 *  return the value digest. */
template <typename Engine>
std::uint64_t
runDigest(Engine &engine, const tigr::service::QuerySpec &spec)
{
    using tigr::engine::Algorithm;
    switch (spec.algorithm) {
      case Algorithm::Bfs:
        return digestOf(engine.bfs(spec.source).values);
      case Algorithm::Sssp:
        return digestOf(engine.sssp(spec.source).values);
      case Algorithm::Sswp:
        return digestOf(engine.sswp(spec.source).values);
      case Algorithm::Cc:
        return digestOf(engine.cc().values);
      case Algorithm::Pr: {
        tigr::engine::PageRankOptions pr;
        pr.iterations = spec.prIterations;
        return digestOf(engine.pagerank(pr).values);
      }
      case Algorithm::Bc: {
        const NodeId sources[] = {spec.source};
        return digestOf(engine.bc(sources).values);
      }
    }
    return 0;
}

/** Value digest of @p spec run directly on a GraphEngine over @p g. */
std::uint64_t denseDigest(const tigr::graph::Csr &graph,
                          const tigr::service::QuerySpec &spec);

} // namespace hostbench

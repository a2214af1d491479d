/**
 * @file
 * `serve`: read-only analytics over snapshot-loaded graphs with a warm
 * transform cache. One query per runBatch call, all six analyses, mostly
 * TigrV+ with shares of TigrV, TigrUdt and baseline; pull for PR/SSSP on
 * the virtual strategies. Most traffic goes to a power-law RMAT graph,
 * the rest to a grid whose max degree (4) is below K, where the split
 * does nothing. Engine and simulator carry this workload; transform
 * builds happen only in set-up and the dynamic and journal layers idle.
 */
#include <cmath>
#include <map>
#include <sstream>
#include <tuple>

#include "bench.hpp"
#include "ref/oracles.hpp"

namespace hostbench {
namespace {

using tigr::engine::Algorithm;
using tigr::engine::Direction;
using tigr::engine::Strategy;
using tigr::graph::Csr;
using namespace tigr::service;

constexpr const char *kGraphs[] = {"rmat", "grid"};
constexpr Strategy kCached[] = {Strategy::TigrVPlus, Strategy::TigrV,
                                Strategy::Baseline};

class Serve final : public Workload
{
  public:
    explicit Serve(const RunArgs &args) : args_(args) {}

    void
    prepare() override
    {
        graphs_[0] = makeRmat(args_.tiny ? 512 : 8192, args_.seed);
        graphs_[1] = makeGrid(args_.tiny ? 16 : 64, args_.seed);
        for (int g = 0; g < 2; ++g) {
            paths_[g] = args_.workDir / (std::string(kGraphs[g]) + ".tgs");
            writeSnapshot(graphs_[g], paths_[g]);
            counts.snapshotBytes += fs::file_size(paths_[g]);
            sources_[g] = pickSources(graphs_[g], 32, args_.seed * 31 + g);
        }

        // The deck: per graph copy and analysis, 8 queries — TigrV+ x4,
        // TigrV x2, TigrUdt x1 (baseline for PR/BC, which UDT cannot
        // run) and baseline x1, half of the virtual PR/SSSP ones pull.
        // Four RMAT copies to one grid copy.
        std::vector<QuerySpec> deck;
        for (int g : {0, 0, 0, 0, 1}) {
            for (int a = 0; a < 6; ++a) {
                const auto algorithm = static_cast<Algorithm>(a);
                const bool both = algorithm == Algorithm::Pr ||
                                  algorithm == Algorithm::Sssp;
                const bool udt = algorithm != Algorithm::Pr &&
                                 algorithm != Algorithm::Bc;
                auto add = [&](Strategy strategy, Direction direction) {
                    QuerySpec spec;
                    spec.graph = kGraphs[g];
                    spec.algorithm = algorithm;
                    spec.strategy = strategy;
                    spec.direction = direction;
                    deck.push_back(spec);
                };
                for (int k = 0; k < 4; ++k)
                    add(Strategy::TigrVPlus,
                        both && k % 2 ? Direction::Pull : Direction::Push);
                for (int k = 0; k < 2; ++k)
                    add(Strategy::TigrV,
                        both && k % 2 ? Direction::Pull : Direction::Push);
                add(udt ? Strategy::TigrUdt : Strategy::Baseline,
                    Direction::Push);
                add(Strategy::Baseline, Direction::Push);
            }
        }
        Rng rng(args_.seed ^ 0x5e7e);
        specs_ = dealFrom(deck, deck.size() * (args_.tiny ? 2 : 20), rng);
        for (QuerySpec &spec : specs_) {
            const auto &pool = sources_[graphIndex(spec)];
            spec.source = pool[rng.below(pool.size())];
        }
    }

    double
    setup(Tracer &tracer, std::int64_t group) override
    {
        scheduler_.reset();
        cache_.reset();
        store_.reset();
        const auto start = Clock::now();
        auto scope = tracer.span("setup", group);
        store_ = std::make_unique<GraphStore>();
        for (int g = 0; g < 2; ++g) {
            auto load = tracer.span("snapshot.load", group);
            store_->addSnapshot(kGraphs[g], paths_[g]);
        }
        cache_ = std::make_unique<TransformCache>(std::size_t{512} << 20);
        // Warm exactly the keys the scheduler's warm-up phase looks up.
        for (const char *name : kGraphs) {
            const StoredGraph &entry = store_->at(name);
            for (Strategy strategy : kCached) {
                auto build = tracer.span("transform.build", group);
                cache_->getOrBuild(
                    {name, &entry.graph, strategy, 10, 8, entry.epoch});
            }
        }
        SchedulerOptions options;
        options.workers = 1;
        options.buildThreads = 1;
        scheduler_ = std::make_unique<QueryScheduler>(
            static_cast<const GraphStore &>(*store_), *cache_, options);
        scope.close();
        return msBetween(start, Clock::now()) / 1000.0;
    }

    bool
    request(std::size_t i, int pass, Tracer &tracer) override
    {
        const QuerySpec &spec = specs_[i % specs_.size()];
        std::vector<QueryResult> results;
        {
            auto scope = tracer.span("request", std::int64_t(i));
            auto batch = tracer.span("scheduler.runBatch", std::int64_t(i));
            results = scheduler_->runBatch({&spec, 1});
            tracer.derived(batch.close(), engineSpanName(spec.algorithm),
                           results[0].info.hostMs);
        }
        const QueryResult &r = results[0];
        if (tracer.enabled)
            counts.addQuery(r);
        digests_[pass].push_back(r.digest);
        return r.outcome == QueryOutcome::Completed;
    }

    std::size_t capacity() const override { return SIZE_MAX; }

    std::size_t
    tracedRequests(double seconds) const override
    {
        return static_cast<std::size_t>(std::ceil(seconds * 40.0));
    }

    TransformCacheStats cacheStats() const override { return cache_->stats(); }

    void
    gates(Gates &gates, bool traced, bool perturb) override
    {
        auto &first = digests_[0];
        if (perturb && !first.empty())
            first[0] ^= 1;
        if (traced) {
            gates.check(digests_[1] == first,
                        "serve: traced replay digests differ from the "
                        "untraced run");
        }
        // One digest per distinct query; every repeat must agree.
        using Query = std::tuple<int, int, NodeId, int, int>;
        std::map<Query, std::pair<std::size_t, std::uint64_t>> seen;
        for (std::size_t i = 0; i < first.size(); ++i) {
            const QuerySpec &spec = specs_[i % specs_.size()];
            const Query query{graphIndex(spec), int(spec.algorithm),
                              spec.source, int(spec.strategy),
                              int(spec.direction)};
            const auto [it, fresh] =
                seen.emplace(query, std::make_pair(i % specs_.size(),
                                                   first[i]));
            if (!fresh && it->second.second != first[i])
                gates.check(false, "serve: request " + std::to_string(i) +
                                       " digest differs from an earlier "
                                       "run of the same query");
        }
        std::map<std::tuple<int, int, NodeId>, std::uint64_t> exact;
        std::map<std::tuple<int, int, NodeId>, std::vector<double>> approx;
        for (const auto &[query, first_run] : seen) {
            const auto [index, digest] = first_run;
            const QuerySpec &spec = specs_[index];
            const int g = graphIndex(spec);
            const Csr &graph = graphs_[g];
            const auto key = std::make_tuple(
                g, int(spec.algorithm),
                spec.algorithm == Algorithm::Cc ||
                        spec.algorithm == Algorithm::Pr
                    ? NodeId{0}
                    : spec.source);
            std::ostringstream what;
            what << "serve: " << spec.graph << ' '
                 << tigr::engine::algorithmName(spec.algorithm) << ' '
                 << tigr::engine::strategyName(spec.strategy)
                 << (spec.direction == Direction::Pull ? " pull" : " push")
                 << " source " << spec.source;
            if (spec.algorithm != Algorithm::Pr &&
                spec.algorithm != Algorithm::Bc) {
                if (!exact.count(key))
                    exact[key] = oracleDigest(graph, spec);
                gates.check(exact[key] == digest,
                            what.str() + " differs from the oracle");
                continue;
            }
            // PR and BC: the scheduler's digest must be the engine's
            // own values, which must match the oracle within the
            // engine tests' tolerances.
            if (!approx.count(key))
                approx[key] = oracleValues(graph, spec);
            const std::vector<double> values = engineValues(graph, spec);
            gates.check(digestOf(values) == digest,
                        what.str() + " digest differs from a direct engine "
                                     "run");
            const std::vector<double> &oracle = approx[key];
            bool close = oracle.size() == values.size();
            for (std::size_t v = 0; close && v < values.size(); ++v) {
                const double tol = spec.algorithm == Algorithm::Pr
                                       ? 1e-9
                                       : 1e-6 * (1.0 + std::abs(oracle[v]));
                close = std::abs(values[v] - oracle[v]) <= tol;
            }
            gates.check(close, what.str() + " outside the oracle tolerance");
        }
    }

    std::string
    describe() const override
    {
        std::ostringstream out;
        out << "\"rmat_nodes\":" << graphs_[0].numNodes()
            << ",\"rmat_edges\":" << graphs_[0].numEdges()
            << ",\"grid_nodes\":" << graphs_[1].numNodes()
            << ",\"grid_edges\":" << graphs_[1].numEdges()
            << ",\"query_sequence\":" << specs_.size();
        return out.str();
    }

  private:
    static int
    graphIndex(const QuerySpec &spec)
    {
        return spec.graph == kGraphs[0] ? 0 : 1;
    }

    static std::uint64_t
    oracleDigest(const Csr &graph, const QuerySpec &spec)
    {
        namespace ref = tigr::ref;
        switch (spec.algorithm) {
          case Algorithm::Bfs:
            return digestOf(ref::bfsHops(graph, spec.source));
          case Algorithm::Sssp:
            return digestOf(ref::dijkstra(graph, spec.source));
          case Algorithm::Sswp:
            return digestOf(ref::widestPath(graph, spec.source));
          case Algorithm::Cc:
            return digestOf(ref::connectedComponents(graph));
          default:
            return 0;
        }
    }

    static std::vector<double>
    oracleValues(const Csr &graph, const QuerySpec &spec)
    {
        if (spec.algorithm == Algorithm::Pr)
            return tigr::ref::pageRank(
                graph, {.damping = 0.85, .iterations = spec.prIterations});
        // Hop-count BC through the weighted oracle over unit weights:
        // ref::betweennessCentrality counts shortest paths in int64,
        // which overflows on the grid (C(126, 63) paths corner to
        // corner); the weighted oracle counts them in double.
        const Csr unit(graph.rowOffsets(), graph.colIndices(),
                       std::vector<Weight>(graph.numEdges(), 1));
        const NodeId sources[] = {spec.source};
        return tigr::ref::weightedBetweennessCentrality(unit, sources);
    }

    static std::vector<double>
    engineValues(const Csr &graph, const QuerySpec &spec)
    {
        tigr::engine::GraphEngine engine(graph, engineOptionsFor(spec));
        if (spec.algorithm == Algorithm::Pr) {
            tigr::engine::PageRankOptions pr;
            pr.iterations = spec.prIterations;
            return engine.pagerank(pr).values;
        }
        const NodeId sources[] = {spec.source};
        return engine.bc(sources).values;
    }

    RunArgs args_;
    Csr graphs_[2];
    fs::path paths_[2];
    std::vector<NodeId> sources_[2];
    std::vector<QuerySpec> specs_;
    std::vector<std::uint64_t> digests_[2];
    std::unique_ptr<GraphStore> store_;
    std::unique_ptr<TransformCache> cache_;
    std::unique_ptr<QueryScheduler> scheduler_;
};

} // namespace

std::unique_ptr<Workload>
makeServe(const RunArgs &args)
{
    return std::make_unique<Serve>(args);
}

} // namespace hostbench

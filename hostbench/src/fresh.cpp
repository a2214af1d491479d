/**
 * @file
 * `fresh`: mutate-then-query on an in-memory store. Each request is one
 * small explicit mutation batch (0.1% of edges, sets alternating uniform
 * and hot-span) plus one query at the new epoch, in a single
 * runBatch(mutations, queries). Most queries use a virtual strategy and
 * are served from the live arenas; about one in eight uses the baseline
 * strategy, which needs the dense graph. This is time-to-fresh-result:
 * arena repair, scheduler routing, dense materialization and the arena
 * engine carry it; no journal runs.
 */
#include <cmath>
#include <sstream>

#include "bench.hpp"
#include "engine/arena_engine.hpp"

namespace hostbench {
namespace {

using tigr::engine::Algorithm;
using tigr::engine::Direction;
using tigr::engine::Strategy;
using tigr::graph::Csr;
using namespace tigr::service;

const std::string kGraph = "g";
constexpr NodeId kHotSpan = 64;

bool
virtualStrategy(Strategy strategy)
{
    return strategy == Strategy::TigrV || strategy == Strategy::TigrVPlus;
}

class Fresh final : public Workload
{
  public:
    explicit Fresh(const RunArgs &args) : args_(args) {}

    void
    prepare() override
    {
        const Csr graph = makeRmat(args_.tiny ? 512 : 8192, args_.seed);
        // 0.1% of edges per batch: half inserts, half deletes.
        const std::size_t per_set =
            std::max<std::size_t>(1, graph.numEdges() / 2000);
        const NodeId n = graph.numNodes();
        stream_ = makeCyclicStream(
            graph, 16, per_set, args_.seed ^ 0xf5e5,
            [n](std::size_t set, std::size_t, Rng &rng) {
                // Odd sets concentrate on the low ids, where RMAT puts
                // its hubs; even sets are uniform.
                return static_cast<NodeId>(
                    rng.below(set % 2 ? std::min(kHotSpan, n) : n));
            });
        for (const auto &batch : stream_.batches)
            mutations_.push_back({kGraph, batch, std::nullopt});

        path_ = args_.workDir / "g.tgs";
        writeSnapshot(stream_.graphAfter(-1), path_);
        counts.snapshotBytes = fs::file_size(path_);
        nodes_ = graph.numNodes();
        edges_ = graph.numEdges();

        // The deck: per analysis, 8 queries — TigrV+ x5, TigrV x2 and
        // one baseline, which needs the dense graph; half of the
        // virtual PR/SSSP ones pull.
        std::vector<QuerySpec> deck;
        for (int a = 0; a < 6; ++a) {
            const auto algorithm = static_cast<Algorithm>(a);
            const bool both = algorithm == Algorithm::Pr ||
                              algorithm == Algorithm::Sssp;
            for (int k = 0; k < 8; ++k) {
                QuerySpec spec;
                spec.graph = kGraph;
                spec.algorithm = algorithm;
                spec.strategy = k < 5   ? Strategy::TigrVPlus
                                : k < 7 ? Strategy::TigrV
                                        : Strategy::Baseline;
                if (both && k < 7 && k % 2)
                    spec.direction = Direction::Pull;
                deck.push_back(spec);
            }
        }
        const std::vector<NodeId> sources =
            pickSources(graph, 64, args_.seed * 37);
        Rng rng(args_.seed ^ 0xf7e5);
        specs_ = dealFrom(deck, args_.tiny ? 4096 : 65536, rng);
        for (QuerySpec &spec : specs_)
            spec.source = sources[rng.below(sources.size())];
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
        {
            auto load = tracer.span("snapshot.load", group);
            store_->addSnapshot(kGraph, path_);
        }
        cache_ = std::make_unique<TransformCache>(std::size_t{512} << 20);
        SchedulerOptions options;
        options.workers = 1;
        options.buildThreads = 1;
        scheduler_ =
            std::make_unique<QueryScheduler>(*store_, *cache_, options);
        // The first mutation builds the arenas and both maintained
        // virtual arrays: lazy set-up, paid once before timing.
        QuerySpec warm = specs_[0];
        warm.algorithm = Algorithm::Bfs;
        warm.strategy = Strategy::TigrVPlus;
        warm.direction = Direction::Push;
        {
            auto first = tracer.span("setup.first_request", group);
            const auto r = scheduler_->runBatch({&mutations_[0], 1},
                                                {&warm, 1});
            if (!r.mutations[0].applied ||
                r.queries[0].outcome != QueryOutcome::Completed)
                throw std::runtime_error("fresh: set-up request failed");
        }
        scope.close();
        return msBetween(start, Clock::now()) / 1000.0;
    }

    bool
    request(std::size_t i, int pass, Tracer &tracer) override
    {
        // Request i applies global batch i + 1 (batch 0 ran in set-up).
        const MutationSpec &mutation =
            mutations_[(i + 1) % mutations_.size()];
        const QuerySpec &spec = specs_[i];
        bool ok = false;
        std::uint64_t digest = 0;
        if (!tracer.enabled) {
            const auto r =
                scheduler_->runBatch({&mutation, 1}, {&spec, 1});
            ok = r.mutations[0].applied &&
                 r.queries[0].outcome == QueryOutcome::Completed;
            digest = r.queries[0].digest;
        } else {
            ok = tracedRequest(i, mutation, spec, tracer, digest);
        }
        digests_[pass].push_back(digest);
        return ok;
    }

    std::size_t capacity() const override { return specs_.size(); }

    std::size_t
    tracedRequests(double seconds) const override
    {
        return std::min(specs_.size(),
                        static_cast<std::size_t>(std::ceil(seconds * 40.0)));
    }

    TransformCacheStats cacheStats() const override { return cache_->stats(); }

    void
    gates(Gates &gates, bool traced, bool perturb) override
    {
        auto &first = digests_[0];
        if (perturb && !first.empty())
            first[0] ^= 1;
        if (traced)
            gates.check(digests_[1] == first,
                        "fresh: traced replay digests differ from the "
                        "untraced run");
        // Sampled epochs: the request's result against a dense rebuild
        // of the shadow graph at that epoch.
        for (std::size_t i = 0; i < first.size(); ++i) {
            if (i % 64 != 0 && i + 1 != first.size())
                continue;
            const Csr dense = stream_.graphAfter(std::int64_t(i + 1));
            gates.check(denseDigest(dense, specs_[i]) == first[i],
                        "fresh: request " + std::to_string(i) +
                            " differs from a dense rebuild of the shadow "
                            "graph");
        }
        // Last epoch of the live session: every analysis, push and
        // pull, straight off the arenas against the dense rebuild.
        const std::size_t done = digests_[traced ? 1 : 0].size();
        const Csr dense = stream_.graphAfter(std::int64_t(done));
        const ArenaView view = store_->arenaView(kGraph);
        gates.check(view.graph && view.epoch == done + 1,
                    "fresh: live epoch differs from the requests applied");
        for (int a = 0; a < 6 && view.graph; ++a) {
            for (Direction dir : {Direction::Push, Direction::Pull}) {
                QuerySpec spec = specs_[0];
                spec.algorithm = static_cast<Algorithm>(a);
                spec.strategy = Strategy::TigrVPlus;
                spec.direction = dir;
                tigr::engine::ArenaEngine engine(
                    *view.graph, view.forward, view.reverse,
                    engineOptionsFor(spec));
                gates.check(runDigest(engine, spec) ==
                                denseDigest(dense, spec),
                            std::string("fresh: last-epoch arena ") +
                                std::string(tigr::engine::algorithmName(
                                    spec.algorithm)) +
                                (dir == Direction::Pull ? " pull" : " push") +
                                " differs from the dense rebuild");
            }
        }
    }

    std::string
    describe() const override
    {
        std::ostringstream out;
        out << "\"rmat_nodes\":" << nodes_ << ",\"rmat_edges\":" << edges_
            << ",\"mutations_per_request\":" << stream_.batches[0].size()
            << ",\"mutation_sets\":" << stream_.batches.size();
        return out.str();
    }

  private:
    /**
     * The same public calls runBatch(mutations, queries) makes, one span
     * each: the mutation path looks the entry up (materializing a stale
     * dense copy), mutates, drops stale schedules and reaches the
     * group-commit barrier (a no-op here); a baseline query then needs
     * the dense copy, which the traced run materializes itself so the
     * span sits around pin().
     */
    bool
    tracedRequest(std::size_t i, const MutationSpec &mutation,
                  const QuerySpec &spec, Tracer &tracer,
                  std::uint64_t &digest)
    {
        const auto group = std::int64_t(i);
        auto scope = tracer.span("request", group);
        if (store_->arenaView(kGraph).staleDense) {
            auto pin = tracer.span("store.materialize", group);
            store_->pin(kGraph);
        }
        MutateResult applied;
        try {
            auto mutate = tracer.span("dynamic.mutate", group);
            applied = store_->mutate(kGraph, mutation.mutations);
        } catch (const std::exception &) {
            return false;
        }
        counts.addMutate(applied);
        {
            auto invalidate = tracer.span("cache.invalidate", group);
            cache_->invalidateStale(kGraph, applied.epoch);
        }
        store_->syncJournals();
        if (!virtualStrategy(spec.strategy) &&
            store_->arenaView(kGraph).staleDense) {
            auto pin = tracer.span("store.materialize", group);
            store_->pin(kGraph);
        }
        auto batch = tracer.span("scheduler.runBatch", group);
        auto results = scheduler_->runBatch({&spec, 1});
        tracer.derived(batch.close(), engineSpanName(spec.algorithm),
                       results[0].info.hostMs);
        counts.addQuery(results[0]);
        digest = results[0].digest;
        return results[0].outcome == QueryOutcome::Completed;
    }

    RunArgs args_;
    CyclicStream stream_;
    std::vector<MutationSpec> mutations_;
    std::vector<QuerySpec> specs_;
    fs::path path_;
    NodeId nodes_ = 0;
    EdgeIndex edges_ = 0;
    std::vector<std::uint64_t> digests_[2];
    std::unique_ptr<GraphStore> store_;
    std::unique_ptr<TransformCache> cache_;
    std::unique_ptr<QueryScheduler> scheduler_;
};

} // namespace

std::unique_ptr<Workload>
makeFresh(const RunArgs &args)
{
    return std::make_unique<Fresh>(args);
}

} // namespace hostbench

/**
 * @file
 * `churn`: a durable write stream with group commit. Mutation-only
 * batches (1% of edges, inserts balanced against deletes so live size
 * stays level) concentrate on hot vertices that grow and shrink across
 * the degree bound K. A checkpoint runs every kCadence batches. Set-up
 * is a restart: openDurable over a directory a previous writer left (a
 * base snapshot plus a journal of unfolded batches), so setup_s is the
 * service's recovery time. The run ends by reopening its own directory,
 * which is the recovery gate. The journal, arena repair and recovery
 * replay carry this workload; the engine does nothing.
 */
#include <algorithm>
#include <cmath>
#include <sstream>

#include "bench.hpp"
#include "service/journal.hpp"

namespace hostbench {
namespace {

using tigr::engine::Algorithm;
using tigr::engine::Direction;
using tigr::engine::Strategy;
using tigr::graph::Csr;
using namespace tigr::service;

const std::string kGraph = "g";
constexpr NodeId kBound = 10;
/** Edges a hot vertex gains (and later loses) in one set: enough to
 *  carry a degree of K-4..K-1 across K. */
constexpr std::size_t kHotGain = 6;

class Churn final : public Workload
{
  public:
    explicit Churn(const RunArgs &args)
        : args_(args), cadence_(args.tiny ? 10 : 50),
          tail_(cadence_ / 2), journaled_(args.tiny ? 4 : 20)
    {
    }

    void
    prepare() override
    {
        const Csr graph = makeRmat(args_.tiny ? 512 : 8192, args_.seed);
        // 1% of edges per batch: half inserts, half deletes.
        const std::size_t per_set =
            std::max<std::size_t>(8, graph.numEdges() / 200);
        const std::size_t hot_inserts = per_set * 3 / 4;

        // Hot vertices sit just under K; even sets grow group 0 while
        // deleting what the previous set gave group 1, odd sets the
        // reverse, so each group crosses K and back every two batches.
        std::vector<NodeId> pool;
        for (NodeId v = 0; v < graph.numNodes(); ++v)
            if (graph.degree(v) + 4 >= kBound && graph.degree(v) < kBound)
                pool.push_back(v);
        Rng shuffle(args_.seed ^ 0xc4a1);
        for (std::size_t i = pool.size(); i > 1; --i)
            std::swap(pool[i - 1], pool[shuffle.below(i)]);
        const std::size_t group = std::max<std::size_t>(
            1, std::min(pool.size() / 2, hot_inserts / kHotGain));
        if (pool.size() < 2)
            throw std::runtime_error("churn: too few vertices near K");
        const NodeId n = graph.numNodes();
        stream_ = makeCyclicStream(
            graph, 16, per_set, args_.seed ^ 0xc5a2,
            [&, n](std::size_t set, std::size_t k, Rng &rng) {
                if (k >= hot_inserts)
                    return static_cast<NodeId>(rng.below(n));
                return pool[(set % 2) * group + (k / kHotGain) % group];
            });
        hotVertices_ = 2 * group;
        nodes_ = graph.numNodes();
        edges_ = graph.numEdges();

        // The previous writer: base snapshot, then `journaled_` batches
        // acknowledged under group commit and never checkpointed.
        prepDir_ = args_.workDir / "prep";
        fs::create_directories(prepDir_);
        writeSnapshot(stream_.graphAfter(-1), prepDir_ / "g.tgs");
        counts.snapshotBytes = fs::file_size(prepDir_ / "g.tgs");
        GraphStore writer;
        writer.openDurable(prepDir_);
        for (std::size_t b = 0; b < journaled_; ++b) {
            writer.mutate(kGraph, stream_.batch(b));
            writer.syncJournals();
        }
    }

    double
    setup(Tracer &tracer, std::int64_t group) override
    {
        store_.reset();
        dir_ = args_.workDir / ("run" + std::to_string(-group));
        journal_ = journalPathFor(dir_ / "g.tgs");
        fs::remove_all(dir_);
        fs::copy(prepDir_, dir_);
        ackedEpochs_.clear();
        const auto start = Clock::now();
        auto scope = tracer.span("setup", group);
        store_ = std::make_unique<GraphStore>();
        {
            auto open = tracer.span("recovery.open", group);
            store_->openDurable(dir_);
        }
        scope.close();
        const double seconds = msBetween(start, Clock::now()) / 1000.0;
        if (store_->epochOf(kGraph) != journaled_)
            throw std::runtime_error("churn: set-up recovered the wrong "
                                     "epoch");
        if (tracer.enabled) {
            // openDurable loads the snapshot inside recovery; time the
            // same load through the public entry point on its own.
            GraphStore probe;
            auto load = tracer.span("snapshot.load", group);
            probe.addSnapshot(kGraph, dir_ / "g.tgs");
        }
        return seconds;
    }

    bool
    request(std::size_t i, int pass, Tracer &tracer) override
    {
        const auto &batch = stream_.batch(journaled_ + i);
        const auto group = std::int64_t(i);
        const std::uintmax_t before =
            tracer.enabled ? fs::file_size(journal_) : 0;
        auto scope = tracer.span("request", group);
        try {
            MutateResult applied;
            {
                auto mutate = tracer.span("dynamic.mutate", group);
                applied = store_->mutate(kGraph, batch);
            }
            {
                auto sync = tracer.span("journal.sync", group);
                store_->syncJournals();
            }
            if (tracer.enabled) {
                counts.addMutate(applied);
                counts.journalBytes += fs::file_size(journal_) - before;
                counts.journaledMutations += batch.size();
            }
            if ((i + 1) % cadence_ == 0) {
                auto checkpoint = tracer.span("journal.checkpoint", group);
                store_->checkpoint(kGraph);
            }
            ackedEpochs_.push_back(applied.epoch);
        } catch (const std::exception &) {
            ackedEpochs_.push_back(0);
            return false;
        }
        passEpochs_[pass].push_back(ackedEpochs_.back());
        return true;
    }

    std::size_t
    capacity() const override
    {
        return SIZE_MAX;
    }

    bool
    mayStop(std::size_t done) const override
    {
        return done >= cadence_ && done % cadence_ == tail_;
    }

    std::size_t
    tracedRequests(double seconds) const override
    {
        const auto rounds = static_cast<std::size_t>(
            std::max(1.0, std::floor(seconds * 100.0 / double(cadence_))));
        return rounds * cadence_ + tail_;
    }

    TransformCacheStats
    cacheStats() const override
    {
        return {};
    }

    void
    gates(Gates &gates, bool traced, bool perturb) override
    {
        if (traced)
            gates.check(passEpochs_[0] == passEpochs_[1],
                        "churn: traced replay acked different epochs");
        const std::size_t done = ackedEpochs_.size();
        const std::uint64_t last = journaled_ + done;
        gates.check(!ackedEpochs_.empty() && ackedEpochs_.back() == last,
                    "churn: last acked epoch differs from the batches "
                    "applied");
        gates.check(store_->epochOf(kGraph) == last,
                    "churn: live epoch differs from the last acked epoch");

        const std::vector<QuerySpec> probes = probeSpecs();
        std::vector<std::uint64_t> live = digests(*store_, probes);
        if (perturb)
            live[0] ^= 1;
        const Csr shadow = stream_.graphAfter(std::int64_t(last) - 1);
        for (std::size_t q = 0; q < probes.size(); ++q)
            gates.check(live[q] == denseDigest(shadow, probes[q]),
                        "churn: live query differs from the shadow graph");
        store_.reset(); // close the journal before reopening

        for (int k = 0; k < (args_.tiny ? 2 : 5); ++k) {
            GraphStore reopened;
            const auto start = Clock::now();
            const RecoveryReport report = reopened.openDurable(dir_);
            counts.recoveryOpenMs.push_back(msBetween(start, Clock::now()));
            counts.recordsReplayed = report.epochsReplayed();
            gates.check(reopened.epochOf(kGraph) == last,
                        "churn: recovered epoch differs from the last acked "
                        "epoch");
            if (k == 0) {
                gates.check(reopened.at(kGraph).graph == shadow,
                            "churn: recovered graph differs from the shadow "
                            "graph");
                gates.check(digests(reopened, probes) == live,
                            "churn: recovered query digests differ from the "
                            "live store's");
            }
        }
    }

    std::string
    describe() const override
    {
        std::ostringstream out;
        out << "\"rmat_nodes\":" << nodes_ << ",\"rmat_edges\":" << edges_
            << ",\"mutations_per_batch\":" << stream_.batches[0].size()
            << ",\"hot_vertices\":" << hotVertices_
            << ",\"checkpoint_every\":" << cadence_
            << ",\"journaled_at_setup\":" << journaled_;
        return out.str();
    }

  private:
    static std::vector<QuerySpec>
    probeSpecs()
    {
        std::vector<QuerySpec> specs(3);
        specs[0].algorithm = Algorithm::Sssp;
        specs[1].algorithm = Algorithm::Pr;
        specs[1].direction = Direction::Pull;
        specs[2].algorithm = Algorithm::Cc;
        for (QuerySpec &spec : specs) {
            spec.graph = kGraph;
            spec.strategy = Strategy::TigrVPlus;
        }
        return specs;
    }

    static std::vector<std::uint64_t>
    digests(GraphStore &store, const std::vector<QuerySpec> &specs)
    {
        TransformCache cache(std::size_t{64} << 20);
        SchedulerOptions options;
        options.workers = 1;
        QueryScheduler scheduler(store, cache, options);
        std::vector<std::uint64_t> out;
        for (const QueryResult &r : scheduler.runBatch(specs))
            out.push_back(r.outcome == QueryOutcome::Completed ? r.digest
                                                               : 0);
        return out;
    }

    RunArgs args_;
    std::size_t cadence_;
    std::size_t tail_;
    std::size_t journaled_;
    CyclicStream stream_;
    std::size_t hotVertices_ = 0;
    NodeId nodes_ = 0;
    EdgeIndex edges_ = 0;
    fs::path prepDir_;
    fs::path dir_;
    fs::path journal_;
    std::vector<std::uint64_t> ackedEpochs_;
    std::vector<std::uint64_t> passEpochs_[2];
    std::unique_ptr<GraphStore> store_;
};

} // namespace

std::unique_ptr<Workload>
makeChurn(const RunArgs &args)
{
    return std::make_unique<Churn>(args);
}

} // namespace hostbench

/**
 * @file
 * Seeded inputs: graphs, snapshots, source pools, cyclic mutation
 * streams, and the dense reference runs the gates compare against.
 */
#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "bench.hpp"
#include "engine/graph_engine.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "service/snapshot.hpp"
#include "transform/virtual_graph.hpp"

namespace hostbench {

using tigr::graph::Csr;

namespace {

Csr
buildWeighted(tigr::graph::CooEdges coo, std::uint64_t seed)
{
    tigr::graph::BuildOptions options;
    options.randomizeWeights = true;
    options.maxWeight = 64;
    options.weightSeed = seed;
    return tigr::graph::GraphBuilder(options).build(std::move(coo));
}

std::uint64_t
pairKey(NodeId src, NodeId dst)
{
    return (std::uint64_t{src} << 32) | dst;
}

} // namespace

Csr
makeRmat(NodeId nodes, std::uint64_t seed)
{
    // Undirected, as the paper's CC inputs are: the engine's CC is weak
    // connectivity only over both edge directions.
    auto coo = tigr::graph::rmat(
        {.nodes = nodes, .edges = EdgeIndex{nodes} * 8, .seed = seed});
    coo.symmetrize();
    return buildWeighted(std::move(coo), seed ^ 0x5eed);
}

Csr
makeGrid(NodeId side, std::uint64_t seed)
{
    return buildWeighted(tigr::graph::grid2d(side, side), seed ^ 0x961d);
}

Adjacency
toAdjacency(const Csr &graph)
{
    Adjacency adj(graph.numNodes());
    for (NodeId v = 0; v < graph.numNodes(); ++v)
        for (EdgeIndex e = graph.edgeBegin(v); e < graph.edgeEnd(v); ++e)
            adj[v].emplace_back(graph.edgeTarget(e), graph.edgeWeight(e));
    return adj;
}

Csr
rebuild(const Adjacency &base, const Adjacency *extra)
{
    std::vector<EdgeIndex> offsets(base.size() + 1, 0);
    std::vector<NodeId> targets;
    std::vector<Weight> weights;
    for (std::size_t v = 0; v < base.size(); ++v) {
        for (const auto *list : {&base[v], extra ? &(*extra)[v] : nullptr}) {
            if (!list)
                continue;
            for (const auto &[dst, w] : *list) {
                targets.push_back(dst);
                weights.push_back(w);
            }
        }
        offsets[v + 1] = targets.size();
    }
    return Csr(std::move(offsets), std::move(targets), std::move(weights));
}

void
writeSnapshot(const Csr &graph, const fs::path &path)
{
    const tigr::transform::VirtualGraph vg(
        graph, 10, tigr::transform::EdgeLayout::Coalesced);
    tigr::service::saveSnapshotFile(vg, path);
}

std::vector<NodeId>
pickSources(const Csr &graph, std::size_t count, std::uint64_t seed)
{
    std::vector<NodeId> candidates;
    for (NodeId v = 0; v < graph.numNodes(); ++v)
        if (graph.degree(v) > 0)
            candidates.push_back(v);
    if (candidates.empty())
        throw std::runtime_error("hostbench: graph has no edges");
    Rng rng(seed);
    std::vector<NodeId> out;
    for (std::size_t i = 0; i < count && !candidates.empty(); ++i) {
        const std::size_t k = rng.below(candidates.size());
        out.push_back(candidates[k]);
        candidates[k] = candidates.back();
        candidates.pop_back();
    }
    return out;
}

Csr
CyclicStream::graphAfter(std::int64_t b) const
{
    const std::size_t c = sets.size();
    const std::size_t j = b < 0 ? c - 1 : std::size_t(b) % c;
    return rebuild(base, &sets[j]);
}

CyclicStream
makeCyclicStream(
    const Csr &graph, std::size_t sets, std::size_t per_set,
    std::uint64_t seed,
    const std::function<NodeId(std::size_t, std::size_t, Rng &)> &pick)
{
    CyclicStream stream;
    stream.base = toAdjacency(graph);
    const NodeId n = graph.numNodes();
    std::unordered_set<std::uint64_t> taken;
    for (NodeId v = 0; v < n; ++v)
        for (const auto &[dst, w] : stream.base[v])
            taken.insert(pairKey(v, dst));

    Rng rng(seed);
    std::vector<std::vector<tigr::graph::Edge>> inserts(sets);
    stream.sets.assign(sets, Adjacency(n));
    for (std::size_t j = 0; j < sets; ++j) {
        for (std::size_t k = 0; k < per_set; ++k) {
            const NodeId src = pick(j, k, rng);
            NodeId dst = 0;
            // Fresh (src, dst) pairs only: a delete then always removes
            // the copy its set inserted, never a base edge.
            for (int tries = 0;; ++tries) {
                dst = static_cast<NodeId>(rng.below(n));
                if (dst != src && taken.insert(pairKey(src, dst)).second)
                    break;
                if (tries > 64)
                    throw std::runtime_error(
                        "hostbench: no fresh edge for a mutation set");
            }
            const auto w = static_cast<Weight>(1 + rng.below(64));
            inserts[j].push_back({src, dst, w});
        }
    }

    using tigr::dynamic::Mutation;
    using tigr::dynamic::MutationKind;
    stream.batches.resize(sets);
    for (std::size_t j = 0; j < sets; ++j) {
        auto &batch = stream.batches[j];
        for (const auto &e : inserts[(j + sets - 1) % sets])
            batch.push_back({MutationKind::DeleteEdge, e.src, e.dst, 1});
        for (const auto &e : inserts[j])
            batch.push_back({MutationKind::InsertEdge, e.src, e.dst,
                             e.weight});
        // Seeded interleave of deletes and inserts (sets share no pair,
        // so order never changes the resulting graph).
        for (std::size_t i = batch.size(); i > 1; --i)
            std::swap(batch[i - 1], batch[rng.below(i)]);
        // Each source's inserts land in batch order: the set's edge
        // lists are recorded in that same order.
        for (const Mutation &m : batch)
            if (m.kind == MutationKind::InsertEdge)
                stream.sets[j][m.src].emplace_back(m.dst, m.weight);
    }
    return stream;
}

tigr::engine::EngineOptions
engineOptionsFor(const tigr::service::QuerySpec &spec)
{
    tigr::engine::EngineOptions opts;
    opts.strategy = spec.strategy;
    opts.direction = spec.direction;
    opts.degreeBound = spec.degreeBound;
    opts.mwVirtualWarp = spec.mwVirtualWarp;
    opts.frontier = spec.frontier;
    opts.frontierRatio = spec.frontierRatio;
    opts.threads = 1;
    return opts;
}

std::uint64_t
denseDigest(const Csr &graph, const tigr::service::QuerySpec &spec)
{
    tigr::engine::GraphEngine engine(graph, engineOptionsFor(spec));
    return runDigest(engine, spec);
}

} // namespace hostbench

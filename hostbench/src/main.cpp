/**
 * @file
 * Runner of the host-time benchmark. One process, one closed-loop
 * client, one scheduler worker, one engine thread.
 *
 *   hostbench --workload serve|fresh|churn --seed N --seconds S
 *             --trace 0|1 --work-dir DIR [--spans-out FILE] [--rev R]
 *             [--tiny] [--perturb-digest]
 *
 * --trace 0 sets up several times (setup_s is their median), then runs
 * requests for S seconds and prints the end-to-end metrics. --trace 1
 * runs a fixed number of requests untraced, sets up again and replays
 * the same requests with spans around each call into a layer, and
 * prints the per-layer metrics. Correctness gates run after the timed
 * phase in both modes. The last stdout line is the JSON result; the
 * exit code is nonzero when a gate fails.
 */
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>

#include "bench.hpp"

namespace hostbench {
namespace {

/** Latency recorded for a failed request: it misses every limit. */
constexpr double kFailedMs = std::numeric_limits<double>::infinity();

struct Pass
{
    std::vector<double> latencyMs;
    std::size_t failed = 0;
    double wallS = 0.0;
};

/** Closed loop: request i+1 is sent only after request i returned. */
Pass
runPass(Workload &workload, Tracer &tracer, int pass, double seconds,
        std::size_t count)
{
    Pass out;
    const auto start = Clock::now();
    for (std::size_t i = 0; i < workload.capacity(); ++i) {
        if (count ? i >= count
                  : msBetween(start, Clock::now()) >= seconds * 1000.0 &&
                        workload.mayStop(i))
            break;
        const auto t0 = Clock::now();
        const bool ok = workload.request(i, pass, tracer);
        const auto t1 = Clock::now();
        out.latencyMs.push_back(ok ? msBetween(t0, t1) : kFailedMs);
        out.failed += ok ? 0 : 1;
    }
    out.wallS = msBetween(start, Clock::now()) / 1000.0;
    return out;
}

/** A fixed integer loop, timed: a noisy neighbour shows as a slower
 *  spin. Recorded only, never used to rescale a metric. */
double
calibrationSpinMs()
{
    const auto start = Clock::now();
    std::uint64_t x = 88172645463325252ULL;
    for (int i = 0; i < 20'000'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    volatile std::uint64_t sink = x;
    (void)sink;
    return msBetween(start, Clock::now());
}

std::string
machineContext()
{
    std::ostringstream out;
    out << "\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN);
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        out << ",\"affinity_cpus\":" << CPU_COUNT(&set);
    std::ifstream quota("/sys/fs/cgroup/cpu.max");
    std::string line;
    std::getline(quota, line);
    out << ",\"cgroup_cpu_max\":\"" << (quota ? line : "unavailable")
        << '"';
    return out.str();
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

/** JSON number with every digit; a failed request's infinity prints as
 *  a huge finite value so the line stays valid JSON. */
std::string
number(double v)
{
    if (!std::isfinite(v))
        v = 1e300;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/**
 * Per-layer timings from the traced spans. For each group (a set-up or
 * a request) the self times of the spans named @p name are summed;
 * the metric is the median of those sums over the groups of the chosen
 * phase that contain the span (0 when none does).
 */
class SpanTable
{
  public:
    explicit SpanTable(const Tracer &tracer)
    {
        const auto self = tracer.selfMs();
        const auto &spans = tracer.spans();
        for (std::size_t i = 0; i < spans.size(); ++i)
            sums_[spans[i].name][spans[i].group] += self[i];
    }

    double
    median(const std::string &name, bool setup) const
    {
        std::vector<double> values;
        const auto it = sums_.find(name);
        if (it != sums_.end())
            for (const auto &[group, ms] : it->second)
                if ((group < 0) == setup)
                    values.push_back(ms);
        return hostbench::median(values);
    }

    std::size_t
    requestGroups(const std::string &name) const
    {
        std::size_t n = 0;
        const auto it = sums_.find(name);
        if (it != sums_.end())
            for (const auto &[group, ms] : it->second)
                n += group >= 0 ? 1 : 0;
        return n;
    }

  private:
    std::map<std::string, std::map<std::int64_t, double>> sums_;
};

/** Share (%) of the traced pass's wall time no layer span covers. */
double
unattributedPct(const Tracer &tracer, double wall_s)
{
    const auto &spans = tracer.spans();
    double covered_ms = 0.0;
    for (const auto &s : spans) {
        if (s.parent < 0 || s.derived || s.group < 0)
            continue;
        if (std::strcmp(spans[s.parent].name, "request") == 0)
            covered_ms += double(s.endNs - s.startNs) * 1e-6;
    }
    return wall_s > 0 ? 100.0 * (1.0 - covered_ms / (wall_s * 1000.0))
                      : 0.0;
}

std::vector<Metric>
endToEnd(const std::vector<double> &setup_s, const Pass &pass,
         double rss_mb)
{
    return {
        {"setup_s", median(setup_s), "s"},
        {"latency_p50_ms", percentile(pass.latencyMs, 50), "ms"},
        {"latency_p99_ms", percentile(pass.latencyMs, 99), "ms"},
        {"requests_per_s",
         double(pass.latencyMs.size() - pass.failed) / pass.wallS, "1/s"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
}

std::vector<Metric>
perLayer(const Tracer &tracer, const LayerCounts &c,
         const tigr::service::TransformCacheStats &before,
         const tigr::service::TransformCacheStats &after,
         const Pass &untraced, const Pass &traced)
{
    const SpanTable t(tracer);
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const double load_ms = t.median("snapshot.load", true);
    const double hits = double(after.hits - before.hits);
    const double misses = double(after.misses - before.misses);
    const double q = double(c.queries);
    const double m = double(c.mutates);
    return {
        {"snapshot.load_ms", load_ms, "ms"},
        {"snapshot.mb_per_s",
         ratio(double(c.snapshotBytes) / (1 << 20), load_ms / 1000.0),
         "MB/s"},
        {"transform.build_ms", t.median("transform.build", true), "ms"},
        {"transform.schedule_mb", double(after.bytes) / (1 << 20), "MB"},
        {"cache.hit_ratio", ratio(hits, hits + misses), "ratio"},
        {"cache.evictions", double(after.evictions - before.evictions),
         "count"},
        {"scheduler.self_ms", t.median("scheduler.runBatch", false), "ms"},
        {"scheduler.arena_served_ratio", ratio(double(c.arenaServed), q),
         "ratio"},
        {"store.materialize_ms", t.median("store.materialize", false), "ms"},
        {"store.materializations",
         double(t.requestGroups("store.materialize")), "count"},
        {"engine.ms.bfs", t.median("engine.bfs", false), "ms"},
        {"engine.ms.sssp", t.median("engine.sssp", false), "ms"},
        {"engine.ms.sswp", t.median("engine.sswp", false), "ms"},
        {"engine.ms.cc", t.median("engine.cc", false), "ms"},
        {"engine.ms.pr", t.median("engine.pr", false), "ms"},
        {"engine.ms.bc", t.median("engine.bc", false), "ms"},
        {"engine.iterations", ratio(double(c.iterations), q), "count"},
        {"engine.sparse_ratio",
         ratio(double(c.sparseIterations), double(c.iterations)), "ratio"},
        {"sim.warps", ratio(double(c.warps), q), "count"},
        {"sim.launches", ratio(double(c.launches), q), "count"},
        {"sim.cycles", ratio(double(c.cycles), q), "cycles"},
        {"sim.warp_efficiency",
         ratio(double(c.instructions), double(c.laneSlots)), "ratio"},
        {"sim.coalescing",
         ratio(double(c.memAccesses), double(c.memTransactions)), "ratio"},
        {"dynamic.mutate_ms", t.median("dynamic.mutate", false), "ms"},
        {"dynamic.repaired", ratio(double(c.repaired), m), "count"},
        {"dynamic.resplits", ratio(double(c.resplits), m), "count"},
        {"dynamic.reverse_repaired", ratio(double(c.reverseRepaired), m),
         "count"},
        {"dynamic.compactions", double(c.compactions), "count"},
        {"dynamic.slack_ratio", ratio(c.slackRatioSum, m), "ratio"},
        {"journal.sync_ms", t.median("journal.sync", false), "ms"},
        {"journal.checkpoint_ms", t.median("journal.checkpoint", false),
         "ms"},
        {"journal.bytes_per_mutation",
         ratio(double(c.journalBytes), double(c.journaledMutations)), "B"},
        {"recovery.open_ms", median(c.recoveryOpenMs), "ms"},
        {"recovery.records_replayed", double(c.recordsReplayed), "count"},
        {"trace.overhead_pct",
         100.0 * ratio(traced.wallS - untraced.wallS, untraced.wallS), "%"},
        {"trace.unattributed_pct", unattributedPct(tracer, traced.wallS),
         "%"},
    };
}

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "hostbench: " << why
              << "\nusage: hostbench --workload serve|fresh|churn --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR [--spans-out FILE] "
                 "[--rev R] [--tiny] [--perturb-digest]\n";
    std::exit(2);
}

RunArgs
parseArgs(int argc, char **argv)
{
    RunArgs args;
    auto value = [&](int &i) -> std::string {
        if (i + 1 >= argc)
            usage(std::string("missing value for ") + argv[i]);
        return argv[++i];
    };
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string flag = argv[i];
            if (flag == "--workload")
                args.workload = value(i);
            else if (flag == "--seed")
                args.seed = std::stoull(value(i));
            else if (flag == "--seconds")
                args.seconds = std::stod(value(i));
            else if (flag == "--trace")
                args.trace = std::stoi(value(i)) != 0;
            else if (flag == "--work-dir")
                args.workDir = value(i);
            else if (flag == "--spans-out")
                args.spansOut = value(i);
            else if (flag == "--rev")
                args.rev = value(i);
            else if (flag == "--tiny")
                args.tiny = true;
            else if (flag == "--perturb-digest")
                args.perturbDigest = true;
            else
                usage("unknown argument " + flag);
        }
    } catch (const std::logic_error &) {
        usage("malformed number");
    }
    if (args.workDir.empty())
        usage("--work-dir is required");
    if (!(args.seconds > 0.0))
        usage("--seconds must be positive");
    return args;
}

int
run(const RunArgs &args)
{
    std::unique_ptr<Workload> workload;
    if (args.workload == "serve")
        workload = makeServe(args);
    else if (args.workload == "fresh")
        workload = makeFresh(args);
    else if (args.workload == "churn")
        workload = makeChurn(args);
    else
        usage("unknown workload '" + args.workload + "'");

    const double spin_before = calibrationSpinMs();
    workload->prepare();

    Tracer tracer;
    tracer.enabled = args.trace;
    const int setups = args.tiny ? 2 : 11;
    std::vector<double> setup_s;
    for (int k = 0; k < setups; ++k)
        setup_s.push_back(workload->setup(tracer, setupGroup(k)));

    Pass untraced;
    Pass traced;
    tigr::service::TransformCacheStats before;
    tigr::service::TransformCacheStats after;
    if (!args.trace) {
        untraced = runPass(*workload, tracer, 0, args.seconds, 0);
    } else {
        // A fixed request count, so per-layer counts repeat exactly. The
        // traced pass replays the untraced pass's requests on a fresh
        // session; the difference of their wall times is the overhead.
        const std::size_t n = workload->tracedRequests(args.seconds);
        tracer.enabled = false;
        untraced = runPass(*workload, tracer, 0, args.seconds, n);
        tracer.enabled = true;
        workload->setup(tracer, setupGroup(setups));
        before = workload->cacheStats();
        traced = runPass(*workload, tracer, 1, args.seconds, n);
        after = workload->cacheStats();
        tracer.enabled = false;
    }
    const double rss_mb = peakRssMb();

    Gates gates;
    workload->gates(gates, args.trace, args.perturbDigest);
    const double spin_after = calibrationSpinMs();

    const std::vector<Metric> metrics =
        args.trace ? perLayer(tracer, workload->counts, before, after,
                              untraced, traced)
                   : endToEnd(setup_s, untraced, rss_mb);
    if (args.trace && !args.spansOut.empty())
        tracer.write(args.spansOut);

    for (const std::string &failure : gates.failures)
        std::cerr << "GATE FAILED: " << failure << '\n';
    for (const Metric &m : metrics)
        std::cout << "metric " << m.name << ' ' << number(m.value) << ' '
                  << m.unit << '\n';
    std::cout << "context {\"workload\":\"" << args.workload
              << "\",\"seed\":" << args.seed << ",\"rev\":\"" << args.rev
              << "\",\"seconds\":" << number(args.seconds)
              << ",\"trace\":" << (args.trace ? 1 : 0) << ','
              << machineContext() << ",\"spin_before_ms\":"
              << number(spin_before) << ",\"spin_after_ms\":"
              << number(spin_after) << ",\"gate_checks\":" << gates.checks
              << ',' << workload->describe() << "}\n";

    const bool correct = gates.failures.empty();
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": "
              << untraced.latencyMs.size() + traced.latencyMs.size()
              << ", \"failed\": " << untraced.failed + traced.failed
              << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::cout << (i ? ", " : "") << '"' << metrics[i].name
                  << "\": {\"value\": " << number(metrics[i].value)
                  << ", \"unit\": \"" << metrics[i].unit << "\"}";
    std::cout << "}}" << std::endl;
    return correct ? 0 : 1;
}

} // namespace
} // namespace hostbench

int
main(int argc, char **argv)
{
    const hostbench::RunArgs args = hostbench::parseArgs(argc, argv);
    try {
        return hostbench::run(args);
    } catch (const std::exception &e) {
        std::cerr << "hostbench: " << args.workload << ": " << e.what()
                  << '\n';
        return 1;
    }
}

/**
 * @file
 * Benchmark driver for the scheduling stack (see README.md here).
 *
 *   perfbench_driver --workload ladder|light|certify --seed n
 *                    --seconds s --trace 0|1 --daemon path
 *                    --state-dir dir [--digest-file f] [--commit c]
 *                    [--source-digest d]
 *   perfbench_driver --print-digest 1 --workload w --seed n
 *
 * Prints a host and build fingerprint line, then as its last line one
 * JSON object {"correct", "attempted", "failed", "metrics"}: every
 * end-to-end metric with --trace 0, every per-layer metric with
 * --trace 1. Exits 1 when any output was wrong or the run was
 * invalid, 2 on bad arguments. With --print-digest it only prints the
 * seed's expected_digests.txt line, computed in-process.
 */

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "client.hh"
#include "common.hh"
#include "ledger.hh"
#include "support/json.hh"
#include "support/perf_counters.hh"
#include "support/simd_kernels.hh"
#include "workloads.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_SANITIZE
#define PERFBENCH_SANITIZE 0
#endif

using namespace perfbench;

namespace
{

/** Every end-to-end metric, in BENCHMARK.json order. */
const std::vector<std::pair<const char *, const char *>> endToEndMetrics = {
    {"setup_s", "s"},          {"throughput_sb_per_s", "1/s"},
    {"peak_rss_mb", "MB"},     {"wct_over_bound", "ratio"},
    {"certified_frac", "ratio"},
};

/** Every per-layer metric, in BENCHMARK.json order. */
const std::vector<std::pair<const char *, const char *>> perLayerMetrics = {
    {"server.healthz_rtt_us", "us"},  {"server.overhead_us", "us"},
    {"server.frame_stall_ms", "ms"},  {"server.shed", "count"},
    {"loadgen.lag_p99_ms", "ms"},
    {"protocol.parse_us", "us"},      {"protocol.render_us", "us"},
    {"workload.sb_parse_us", "us"},   {"graph_cache.acquire_us", "us"},
    {"graph_cache.hit_frac", "ratio"}, {"graph.context_us", "us"},
    {"engine.run_us", "us"},          {"bounds.toolkit_us", "us"},
    {"bounds.lc_us", "us"},           {"bounds.laterc_us", "us"},
    {"bounds.pw_us", "us"},           {"bounds.rj_us", "us"},
    {"bounds.tw_us", "us"},           {"bounds.tw_share", "ratio"},
    {"bounds.tw_trips", "count"},     {"bounds.tw_useful_frac", "ratio"},
    {"bounds.tw_below_pw", "count"},
    {"core.balance_us", "us"},        {"core.help_us", "us"},
    {"sched.list_us", "us"},          {"sched.best_us", "us"},
    {"sched.validate_us", "us"},      {"bnb.search_us", "us"},
    {"bnb.nodes", "count"},           {"bnb.nodes_per_s", "1/s"},
    {"bnb.prune_bound_frac", "ratio"}, {"bnb.rounds", "count"},
    {"bnb.cpu_util", "ratio"},        {"trace.overhead_pct", "%"},
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench_driver: " << why << "\n"
              << "usage: perfbench_driver --workload ladder|light|certify "
                 "--seed n --seconds s --trace 0|1 --daemon path "
                 "--state-dir dir [--digest-file f] [--commit c] "
                 "[--source-digest d]\n"
                 "       perfbench_driver --print-digest 1 --workload w "
                 "--seed n\n";
    std::exit(2);
}

long long
parseNumber(const std::string &flag, const std::string &text, long long lo,
            long long hi)
{
    char *end = nullptr;
    long long v = std::strtoll(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || v < lo || v > hi)
        usage("bad value for " + flag + ": '" + text + "'");
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        std::string value = argv[++i];
        if (flag == "--workload")
            o.workload = value;
        else if (flag == "--seed")
            o.seed = std::uint64_t(
                parseNumber(flag, value, 0, (1LL << 62)));
        else if (flag == "--seconds")
            o.seconds = int(parseNumber(flag, value, 1, 120));
        else if (flag == "--trace")
            o.trace = parseNumber(flag, value, 0, 1) == 1;
        else if (flag == "--daemon")
            o.daemonPath = value;
        else if (flag == "--state-dir")
            o.stateDir = value;
        else if (flag == "--digest-file")
            o.digestFile = value;
        else if (flag == "--print-digest")
            o.printDigest = parseNumber(flag, value, 0, 1) == 1;
        else if (flag == "--commit")
            o.commit = value;
        else if (flag == "--source-digest")
            o.sourceDigest = value;
        else
            usage("unknown flag " + flag);
    }
    if (o.workload != "ladder" && o.workload != "light" &&
        o.workload != "certify")
        usage("unknown workload '" + o.workload + "'");
    if (!o.printDigest &&
        (o.stateDir.empty() ||
         (o.workload != "certify" && o.daemonPath.empty())))
        usage("--state-dir and (for serve workloads) --daemon are required");
    // One client thread and connection per core, as a caller on this
    // host would use; light needs two (one per wire).
    o.conns = std::clamp(int(std::thread::hardware_concurrency()), 2, 8);
    return o;
}

/** Total and steal jiffies of all CPUs (/proc/stat). */
std::pair<long long, long long>
cpuJiffies()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    long long v = 0, total = 0, steal = 0;
    in >> cpu;
    for (int field = 0; field < 8 && in >> v; ++field) {
        total += v;
        if (field == 7)
            steal = v;
    }
    return {total, steal};
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

/**
 * "yes" when some CPU shares its core with an SMT sibling, "no" when
 * none does, "unknown" when sysfs does not say.
 */
std::string
smtSiblings()
{
    namespace fs = std::filesystem;
    std::error_code ec;
    bool any = false;
    for (const auto &entry :
         fs::directory_iterator("/sys/devices/system/cpu", ec)) {
        std::ifstream in(entry.path() / "topology" / "thread_siblings_list");
        std::string list;
        if (!(in >> list))
            continue;
        any = true;
        if (list.find_first_of(",-") != std::string::npos)
            return "yes";
    }
    return any ? "no" : "unknown";
}

/**
 * Host and build facts that decide whether two runs' numbers may be
 * compared; recorded in the run's notes and printed.
 */
void
addFingerprint(const Options &opts, bool keepAwake, RunResult &result)
{
    balance::PerfSampler sampler;
    std::string buildType = PERFBENCH_BUILD_TYPE;
    bool sanitized = PERFBENCH_SANITIZE != 0;
    std::string simd = balance::simdKernels().name;
    std::vector<std::string> flags;
    if (buildType == "Debug" || buildType.empty())
        flags.push_back("unoptimized build");
    if (sanitized)
        flags.push_back("sanitizer build");
    if (simd == "scalar")
        flags.push_back("fallback (scalar) SIMD tier");
    auto &n = result.notes;
    n["workload"] = opts.workload;
    n["seed"] = std::to_string(opts.seed);
    n["seconds"] = std::to_string(opts.seconds);
    n["trace"] = opts.trace ? "1" : "0";
    n["cpu_model"] = cpuModel();
    n["nproc"] = std::to_string(std::thread::hardware_concurrency());
    n["connections"] = std::to_string(opts.conns);
    n["build_type"] = buildType;
    n["sanitizer"] = sanitized ? "yes" : "no";
    n["simd_tier"] = simd;
    n["perf_counter_tier"] = balance::perfTierName(sampler.tier());
    n["smt_siblings"] = smtSiblings();
    n["keep_awake"] = keepAwake ? "on" : "off";
    n["commit"] = opts.commit;
    n["source_digest"] = opts.sourceDigest;
    std::string joined;
    for (const std::string &f : flags)
        joined += (joined.empty() ? "" : "; ") + f;
    n["not_comparable"] = joined;
    if (!flags.empty())
        std::cerr << "perfbench: WARNING: " << joined
                  << " -- do not compare these numbers with a "
                     "RelWithDebInfo/AVX2 run\n";
}

void
printMetrics(balance::JsonWriter &w,
             const std::vector<std::pair<const char *, const char *>> &names,
             const std::map<std::string, Metric> &values)
{
    w.key("metrics").beginObject();
    for (const auto &[name, unit] : names) {
        auto it = values.find(name);
        double v = it == values.end() ? 0.0 : it->second.value;
        w.key(name).beginObject().key("value").value(v).key("unit").value(
            unit).endObject();
    }
    w.endObject();
}

/**
 * Every fact, metric and problem of the run, for later comparison;
 * a traced run's record also carries its ledger.
 */
void
writeRunRecord(const std::string &path, const RunResult &result,
               bool correct)
{
    balance::JsonWriter w;
    w.beginObject();
    w.key("correct").value(correct);
    w.key("attempted").value(result.attempted);
    w.key("failed").value(result.failed);
    w.key("facts").beginObject();
    for (const auto &[k, v] : result.notes)
        w.key(k).value(v);
    w.endObject();
    for (const auto *group : {&result.endToEnd, &result.perLayer}) {
        w.key(group == &result.endToEnd ? "end_to_end" : "per_layer")
            .beginObject();
        for (const auto &[k, m] : *group)
            w.key(k).value(m.value);
        w.endObject();
    }
    w.key("problems").beginArray();
    for (const std::string &p : result.problems)
        w.value(p);
    w.endArray();
    if (result.ledger) {
        w.key("ledger");
        writeLedger(w, *result.ledger);
    }
    w.endObject();
    std::ofstream out(path);
    out << w.str() << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts = parseArgs(argc, argv);
    if (opts.printDigest) {
        auto [count, digest] =
            opts.workload == "certify"
                ? expectedCertifyDigest(opts)
                : expectedServeDigest(opts, opts.workload == "ladder");
        std::cout << opts.workload << " " << opts.seed << " " << count << " "
                  << hex64(digest) << std::endl;
        return 0;
    }
    // Started before any thread exists: the child forks a clean copy.
    KeepAwake keepAwake(int(std::thread::hardware_concurrency()));
    auto [total0, steal0] = cpuJiffies();
    RunResult result = opts.workload == "certify"
                           ? runCertify(opts)
                           : runServe(opts, opts.workload == "ladder");
    auto [total1, steal1] = cpuJiffies();
    addFingerprint(opts, keepAwake.running(), result);
    // CPU time the hypervisor took from this VM during the run: the
    // main source of run-to-run noise on a shared host.
    result.notes["host_steal_pct"] = std::to_string(
        total1 > total0 ? 100.0 * double(steal1 - steal0) /
                              double(total1 - total0)
                        : 0.0);

    // A metric missing from the lists above would never be printed.
    for (const auto *group : {&result.endToEnd, &result.perLayer}) {
        const auto &names =
            group == &result.endToEnd ? endToEndMetrics : perLayerMetrics;
        for (const auto &[name, metric] : *group)
            if (std::none_of(names.begin(), names.end(), [&](auto &n) {
                    return name == n.first && metric.unit == n.second;
                }))
                result.fail("undeclared metric " + name + " [" +
                            metric.unit + "]");
    }
    bool correct = result.problems.empty() && result.failed == 0 &&
                   result.attempted > 0;
    for (const std::string &p : result.problems)
        std::cerr << "perfbench: FAIL: " << p << "\n";

    std::string record = opts.stateDir + "/" + opts.workload + "-seed" +
                         std::to_string(opts.seed) +
                         (opts.trace ? "-ledger.json" : "-run.json");
    writeRunRecord(record, result, correct);
    std::cerr << "perfbench: run record written to " << record << "\n";

    balance::JsonWriter fingerprint;
    fingerprint.beginObject();
    for (const auto &[k, v] : result.notes)
        fingerprint.key(k).value(v);
    fingerprint.endObject();
    std::cout << "perfbench run " << fingerprint.str() << "\n";

    balance::JsonWriter w;
    w.beginObject()
        .key("correct").value(correct)
        .key("attempted").value(std::max(1LL, result.attempted))
        .key("failed").value(result.failed);
    if (opts.trace)
        printMetrics(w, perLayerMetrics, result.perLayer);
    else
        printMetrics(w, endToEndMetrics, result.endToEnd);
    w.endObject();
    std::cout << w.str() << std::endl;
    return correct ? 0 : 1;
}

/**
 * @file
 * Shared pieces of the benchmark driver: options, the result record
 * every workload fills, timing helpers and order statistics.
 *
 * The driver measures the shipped library and daemon from outside:
 * every timed region wraps a call into a public function of the
 * library, or a request to a balance_serviced child process.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Microseconds between two time points. */
inline double
microsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Ledger;

/** Command-line options (see usage() in driver.cc). */
struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    int seconds = 10;
    bool trace = false;
    std::string daemonPath; ///< balance_serviced binary
    std::string stateDir;   ///< ledgers and per-seed digests
    std::string digestFile; ///< committed expected digests, may be absent
    bool printDigest = false; ///< print the expected digest line, no run
    std::string commit = "unknown";
    std::string sourceDigest = "unknown";
    int conns = 4; ///< client threads and connections (nproc)
};

/** One metric as printed in the result line. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/**
 * Everything one run reports. `failed` counts every attempted unit
 * of work (request or certify instance) that did not produce a
 * correct answer: non-200 replies, shed requests, connection errors
 * and wrong outputs alike.
 */
struct RunResult
{
    long long attempted = 0;
    long long failed = 0;
    /** Checks that are not per request (digests, replay identity). */
    std::vector<std::string> problems;
    std::map<std::string, Metric> endToEnd;
    std::map<std::string, Metric> perLayer;
    /** Extra facts for the ledger file (not printed as metrics). */
    std::map<std::string, std::string> notes;
    /** The traced run's spans (ledger.hh); null when not tracing. */
    std::shared_ptr<Ledger> ledger;

    void
    fail(const std::string &why)
    {
        problems.push_back(why);
    }
};

/**
 * Linear-interpolated percentile of an ascending vector; p in [0, 1].
 */
double percentile(const std::vector<double> &sorted, double p);

/** Median of an unsorted vector (copied). */
double median(std::vector<double> values);

/**
 * A run's value of a metric measured per window: the lower quartile of
 * the windows' values when lower is better (latencies), the upper
 * quartile otherwise (rates). On a shared host the windows the
 * hypervisor took CPU from read worse; a change in the program moves
 * every window, the least disturbed quarter with them.
 */
double leastDisturbed(std::vector<double> perWindow, bool lowerIsBetter);

/**
 * Number of samples strictly above the @p p percentile of @p sorted,
 * for the "at least ten samples beyond it" rule.
 */
std::size_t countAbove(const std::vector<double> &sorted, double p);

/**
 * Set-up repeats: at least three, and more while they take under a
 * second in all, so the reported median of a cheap set-up is steady.
 */
inline bool
keepSettingUp(int done, Clock::time_point start)
{
    return done < 3 || (done < 25 && secondsSince(start) < 1.0);
}

/** Resident-set high-water mark (VmHWM) of @p pid in MiB; -1 on error. */
double peakRssMb(int pid);

/** Seeded sub-stream seed: distinct per (seed, purpose). */
std::uint64_t subSeed(std::uint64_t seed, std::uint64_t purpose);

/** FNV-1a 64 of @p text folded into @p h (content digests). */
std::uint64_t fold(std::uint64_t h, const std::string &text);

/** Initial value for fold(). */
constexpr std::uint64_t digestInit = 1469598103934665603ull;

/** @return @p h as 16 hex digits. */
std::string hex64(std::uint64_t h);

/**
 * Check the digest of a seed's first @p count answers (responses or
 * certificates). The expectation is the line "workload seed count
 * digest" of the committed opts.digestFile when it has one, so any
 * change to an answer fails the run until that file is regenerated
 * (README.md, "Correctness gate"); otherwise it is the digest an
 * earlier run of the same (workload, seed, count) stored under
 * opts.stateDir, stored now when absent. Records the digest and the
 * expectation's source in the notes under @p what.
 */
void checkDigest(const Options &opts, const std::string &what,
                 long long count, std::uint64_t digest, RunResult &result);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH

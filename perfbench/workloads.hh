/**
 * @file
 * The three workloads. Each fills a RunResult: end-to-end metrics
 * always, per-layer metrics and a ledger file when tracing.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <utility>

#include "common.hh"

namespace perfbench
{

/** ladder (when @p ladder) or light, against a balance_serviced child. */
RunResult runServe(const Options &opts, bool ladder);

/** certify: in-process branch-and-bound, one instance at a time. */
RunResult runCertify(const Options &opts);

/**
 * The (count, digest) a run of this seed must report, computed
 * in-process without timing: the rendered responses to the first
 * open-loop requests, or the first certificate of every certify
 * instance. Regenerates expected_digests.txt.
 */
std::pair<long long, std::uint64_t> expectedServeDigest(const Options &opts,
                                                        bool ladder);
std::pair<long long, std::uint64_t> expectedCertifyDigest(
    const Options &opts);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH

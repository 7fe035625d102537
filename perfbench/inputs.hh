/**
 * @file
 * Seeded inputs for the three workloads. The same --seed always
 * yields the same superblocks, request bodies and send order; the
 * daemon receives nothing but these generated bodies.
 */

#ifndef PERFBENCH_INPUTS_HH
#define PERFBENCH_INPUTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "graph/superblock.hh"
#include "machine/machine_model.hh"

namespace perfbench
{

/** Wire protocol of one serve request. */
enum class Wire
{
    Http, ///< one POST /schedule per connection
    Frame ///< one SBP1 frame on a persistent connection
};

/** One distinct /schedule body. */
struct BodySpec
{
    int sb = 0; ///< index into ServeInputs::superblocks
    std::string machine;
    std::string scheduler;
    bool bounds = false;
    std::string body; ///< rendered JSON request
};

/** Inputs of a serve workload (ladder or light). */
struct ServeInputs
{
    std::vector<balance::Superblock> superblocks;
    std::vector<std::string> sbTexts; ///< writeSuperblock of each
    std::vector<BodySpec> bodies;     ///< distinct request bodies
    /** Body id of request i (sent in this order, wrapping around). */
    std::vector<int> sequence;
    /** Request i goes over wireCycle[i % wireCycle.size()]. */
    std::vector<Wire> wireCycle;
    /** Body ids sent one at a time while the daemon warms up. */
    std::vector<int> warmup;
    /** Digest of every generated body, to prove the inputs repeat. */
    std::uint64_t digest = 0;
};

/**
 * ladder: every superblock of a seeded suite sample once per pass,
 * single-superblock `balance` + `bounds: true` requests on a machine
 * drawn from the six paper configs. The sample is ~100x the daemon's
 * 256-entry GraphContext cache, so requests miss.
 */
ServeInputs makeLadderInputs(std::uint64_t seed);

/**
 * light: `bounds: false` requests for small superblocks drawn from a
 * working set that fits the cache, schedulers drawn from
 * cp/sr/gstar/dhasy/help/balance, alternating HTTP and SBP1.
 */
ServeInputs makeLightInputs(std::uint64_t seed);

/** One certify instance. */
struct CertifyInstance
{
    balance::Superblock sb;
    balance::MachineModel machine;
};

/**
 * certify: generated 50-100-op superblocks in equal shares of five
 * size bands, alternating between the GP2 and FS4 machines where B&B
 * spends the most.
 */
std::vector<CertifyInstance> makeCertifyInputs(std::uint64_t seed,
                                               int count);

/** Digest of a certify population (names, .sb text, machines). */
std::uint64_t certifyDigest(const std::vector<CertifyInstance> &instances);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_HH

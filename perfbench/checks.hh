/**
 * @file
 * Output checks. Every serve response is parsed, its schedule rebuilt
 * from the issue vector and validated against the request's
 * superblock and machine, and (ladder) its bound ladder checked
 * against RJ <= PW <= TW <= WCT: every bound at most the WCT and
 * RJ <= PW gate the run, TW < PW is counted (twBelowPw). A seeded
 * sample is cross-checked against the naive engines in
 * bounds/reference and sched/reference. None of the checks abort: a
 * wrong answer is reported and counted as failed.
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <string>
#include <vector>

#include "bounds/superblock_bounds.hh"
#include "graph/superblock.hh"
#include "inputs.hh"
#include "machine/machine_model.hh"

namespace perfbench
{

/** The fields of one /schedule result the checks need. */
struct ParsedResult
{
    std::string superblock;
    std::string machine;
    std::string scheduler;
    double wct = 0.0;
    long long makespan = 0;
    std::vector<int> issue;
    bool haveBounds = false;
    balance::WctBounds bounds;
    double tightest = 0.0;
};

/** Parse a single-result response body. @return "" or the reason. */
std::string parseResult(const std::string &body, ParsedResult &out);

/**
 * Dependence and resource feasibility of @p issue (the checks of
 * Schedule::validate, reporting instead of aborting).
 * @return "" or the first violation.
 */
std::string checkSchedule(const balance::Superblock &sb,
                          const balance::MachineModel &machine,
                          const std::vector<int> &issue);

/**
 * Everything checkable from the response alone: echoed request
 * fields, a feasible schedule whose recomputed WCT and makespan equal
 * the reported ones, and (when bounds are present) every bound at
 * most the WCT, RJ <= PW, and tightest the largest bound.
 * @return "" or the reason.
 */
std::string checkServeResult(const BodySpec &spec,
                             const balance::Superblock &sb,
                             const ParsedResult &r);

/**
 * Recompute the result without the daemon: bounds through the naive
 * reference engine (bit-identical by contract); CP/SR/DHASY/G*
 * schedules through the naive reference schedulers; Balance and Help
 * (which have no naive twin) through a fresh in-process scheduler
 * with no cache or scratch reuse. @return "" or the mismatch.
 */
std::string referenceCheck(const BodySpec &spec,
                           const balance::Superblock &sb,
                           const ParsedResult &r);

/**
 * The one rung of RJ <= PW <= TW <= WCT the library does not keep:
 * computeTriplewise averages triples without flooring at PW, so a
 * valid TW can sit below PW. Counted and reported, not failed; the
 * served tightest bound is unaffected.
 */
bool twBelowPw(const ParsedResult &r);

/**
 * The best lower bound the library proves for (sb, machine): the
 * tightest of the six-bound ladder.
 */
double tightestBound(const balance::Superblock &sb,
                     const balance::MachineModel &machine);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH

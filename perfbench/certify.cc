/**
 * @file
 * The certify workload: in-process and closed loop, one instance at a
 * time. A verdict is everything a caller pays for a certificate: the
 * analysis context, the BoundsToolkit whose PW bound floors the
 * certificate, a Best schedule as the incumbent, and bnbSchedule with
 * one worker per core under a fixed node budget.
 */

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <map>
#include <optional>

#include "bounds/branch_bounds.hh"
#include "bounds/reference.hh"
#include "checks.hh"
#include "eval/experiment.hh"
#include "inputs.hh"
#include "ledger.hh"
#include "sched/best_scheduler.hh"
#include "sched/bnb/bnb.hh"
#include "sched/heuristics.hh"
#include "sched/reference/reference.hh"
#include "sched/sched_scratch.hh"
#include "support/rng.hh"
#include "workloads.hh"

using namespace balance;

namespace perfbench
{

namespace
{

/** Instances per seed; every run certifies all of them at least once. */
constexpr int certifyCount = 2000;
/** Node budget per instance. */
constexpr long long nodeBudget = 20000;
/**
 * Nodes one task gets per round. bnbSchedule grants chunks in
 * frontier order until the budget is spoken for, so with the default
 * 25000-node chunk a 20000-node budget goes to a single task and the
 * search runs on one thread whatever `threads` says. Eight chunks per
 * budget give every worker tasks.
 */
constexpr long long taskChunk = nodeBudget / 8;
/** Instances replayed by the traced run. */
constexpr int tracedCount = 200;
/** Instances whose PW floor is recomputed by the naive engine. */
constexpr int referenceSample = 4;
/** Windows of consecutive verdicts a metric takes the median over. */
constexpr std::size_t windows = 10;

struct Verdict
{
    double ms = 0.0;
    BnbResult bnb;
    double staticBound = 0.0; ///< PW floor handed to the search
    double seedWct = 0.0;     ///< the Best incumbent's WCT
};

/** The primaries of sched_reference::bestSchedule, in its order. */
std::vector<std::shared_ptr<const Scheduler>>
referencePrimaries()
{
    return {std::make_shared<SuccessiveRetirementScheduler>(),
            std::make_shared<CriticalPathScheduler>(),
            std::make_shared<GStarScheduler>(),
            std::make_shared<DhasyScheduler>()};
}

/** Certify one instance; the untraced verdict path. */
Verdict
certify(const CertifyInstance &inst, const BestScheduler &best,
        SchedScratch &scratch, int threads)
{
    Verdict v;
    auto t0 = Clock::now();
    GraphContext ctx(inst.sb);
    BoundsToolkit toolkit(ctx, inst.machine);
    ScheduleRequest schedReq;
    schedReq.scratch = &scratch;
    Schedule seed = best.run(ctx, inst.machine, schedReq);
    BnbOptions opts;
    opts.maxNodes = nodeBudget;
    opts.threads = threads;
    opts.taskChunk = taskChunk;
    BnbRequest req;
    req.toolkit = &toolkit;
    req.seedSchedule = &seed;
    req.staticLowerBound = toolkit.pairwise()->superblockWct();
    v.bnb = bnbSchedule(ctx, inst.machine, opts, req);
    v.ms = std::chrono::duration<double, std::milli>(Clock::now() - t0)
               .count();
    v.staticBound = req.staticLowerBound;
    v.seedWct = seed.wct(inst.sb);
    return v;
}

/** @return "" or why the certificate is wrong. */
std::string
checkVerdict(const CertifyInstance &inst, const Verdict &v)
{
    const BnbResult &r = v.bnb;
    std::vector<int> issue;
    for (OpId op = 0; op < inst.sb.numOps(); ++op)
        issue.push_back(r.schedule.numOps() == inst.sb.numOps()
                            ? r.schedule.issueOf(op)
                            : -1);
    std::string why = checkSchedule(inst.sb, inst.machine, issue);
    if (!why.empty())
        return why;
    if (r.schedule.wct(inst.sb) != r.wct)
        return "certified wct differs from its schedule's";
    if (!(r.lowerBound <= r.wct))
        return "lower bound above the incumbent";
    if (r.proven && r.wct != r.lowerBound)
        return "proven optimal but wct != lower bound";
    if (r.lowerBound < v.staticBound || r.wct > v.seedWct)
        return "certificate looser than its PW floor or Best seed";
    return "";
}

double
processCpuSeconds()
{
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/** The traced replay of the first instances (ledger.hh). */
void
traceCertify(const Options &opts, const std::vector<CertifyInstance> &pop,
             const std::vector<Verdict> &untraced, const BestScheduler &best,
             SchedScratch &scratch, RunResult &result)
{
    result.ledger = std::make_shared<Ledger>();
    Tracer &tracer = result.ledger->tracer;
    double wallTraced = 0.0, wallUntraced = 0.0;
    double bnbWall = 0.0, bnbCpu = 0.0;
    BnbCounters sum;
    int count = std::min<int>(tracedCount, int(pop.size()));
    for (int i = 0; i < count; ++i) {
        const CertifyInstance &inst = pop[std::size_t(i)];
        tracer.setRequest(i);
        auto t0 = Clock::now();
        std::optional<GraphContext> ctx;
        {
            SpanScope s(tracer, Layer::Context, -1);
            ctx.emplace(inst.sb);
        }
        BoundConfig config;
        std::optional<BoundsToolkit> toolkit;
        int toolkitSpan = 0;
        {
            SpanScope s(tracer, Layer::Toolkit, -1);
            toolkit.emplace(*ctx, inst.machine, config);
            toolkitSpan = s.id();
        }
        std::vector<int> early;
        {
            SpanScope s(tracer, Layer::Lc, toolkitSpan);
            early = lcEarlyRCForSuperblock(*ctx, inst.machine, config.lc);
        }
        std::vector<std::vector<int>> lates;
        {
            SpanScope s(tracer, Layer::LateRc, toolkitSpan);
            for (int bi = 0; bi < inst.sb.numBranches(); ++bi)
                lates.push_back(lateRCFor(*ctx, inst.machine, bi, early));
        }
        {
            SpanScope s(tracer, Layer::Pw, toolkitSpan);
            PairwiseBounds pw(*ctx, inst.machine, early, lates,
                              config.pairwise);
            if (pw.superblockWct() != toolkit->pairwise()->superblockWct())
                result.fail("replayed PW differs from BoundsToolkit's");
        }
        Schedule seed;
        {
            SpanScope s(tracer, Layer::Best, -1);
            ScheduleRequest schedReq;
            schedReq.scratch = &scratch;
            seed = best.run(*ctx, inst.machine, schedReq);
        }
        {
            SpanScope s(tracer, Layer::Validate, -1);
            seed.validate(inst.sb, inst.machine);
        }
        BnbResult r;
        {
            SpanScope s(tracer, Layer::Bnb, -1);
            BnbOptions bnbOpts;
            bnbOpts.maxNodes = nodeBudget;
            bnbOpts.threads = opts.conns;
            bnbOpts.taskChunk = taskChunk;
            BnbRequest req;
            req.toolkit = &*toolkit;
            req.seedSchedule = &seed;
            req.staticLowerBound = toolkit->pairwise()->superblockWct();
            double cpu0 = processCpuSeconds();
            auto w0 = Clock::now();
            r = bnbSchedule(*ctx, inst.machine, bnbOpts, req);
            bnbWall += secondsSince(w0);
            bnbCpu += processCpuSeconds() - cpu0;
        }
        wallTraced += microsBetween(t0, Clock::now());
        wallUntraced += untraced[std::size_t(i)].ms * 1000.0;
        if (r.certificate() != untraced[std::size_t(i)].bnb.certificate())
            result.fail("traced certificate differs from the untraced one");
        sum.nodesExpanded += r.counters.nodesExpanded;
        sum.prunedByBound += r.counters.prunedByBound;
        sum.rounds += r.counters.rounds;
        result.ledger->rows.push_back({inst.sb.name(), inst.sb.numOps(),
                                       inst.machine.name(), "bnb", false});
    }
    addSelfTimeMetrics(tracer, count, result);
    auto &pl = result.perLayer;
    pl["bnb.nodes"] = {double(sum.nodesExpanded), "count"};
    pl["bnb.nodes_per_s"] = {
        bnbWall > 0.0 ? double(sum.nodesExpanded) / bnbWall : 0.0, "1/s"};
    long long generated = sum.nodesExpanded + sum.prunedByBound;
    pl["bnb.prune_bound_frac"] = {
        generated > 0 ? double(sum.prunedByBound) / double(generated) : 0.0,
        "ratio"};
    pl["bnb.rounds"] = {double(sum.rounds), "count"};
    pl["bnb.cpu_util"] = {
        bnbWall > 0.0 ? bnbCpu / (bnbWall * opts.conns) : 0.0, "ratio"};
    pl["trace.overhead_pct"] = {
        wallUntraced > 0.0
            ? (wallTraced - wallUntraced) / wallUntraced * 100.0
            : 0.0,
        "%"};
}

} // namespace

RunResult
runCertify(const Options &opts)
{
    RunResult result;
    BestScheduler best(HeuristicSet::paperSet(false).primaries);
    SchedScratch scratch;
    std::vector<CertifyInstance> pop;
    std::vector<double> setups;
    std::uint64_t firstDigest = 0;
    auto setupStart = Clock::now();
    for (int rep = 0; keepSettingUp(rep, setupStart); ++rep) {
        auto t0 = Clock::now();
        pop = makeCertifyInputs(opts.seed, certifyCount);
        // Warm the worker pool and scratch on the first instance.
        (void)certify(pop.front(), best, scratch, opts.conns);
        setups.push_back(secondsSince(t0));
        std::uint64_t d = certifyDigest(pop);
        if (rep == 0)
            firstDigest = d;
        else if (d != firstDigest)
            result.fail("inputs differ between set-ups of one seed");
    }
    result.endToEnd["setup_s"] = {median(setups), "s"};
    result.notes["inputs_digest"] = hex64(firstDigest);

    // Closed loop: every instance once, then around again until the
    // run's seconds are spent.
    std::vector<Verdict> first;
    std::vector<double> ms;
    std::vector<double> doneS; ///< completion, seconds into the loop
    std::map<std::string, int> reasons;
    auto t0 = Clock::now();
    for (std::size_t i = 0;
         i < pop.size() || secondsSince(t0) < double(opts.seconds); ++i) {
        const CertifyInstance &inst = pop[i % pop.size()];
        Verdict v = certify(inst, best, scratch, opts.conns);
        ms.push_back(v.ms);
        doneS.push_back(secondsSince(t0));
        ++result.attempted;
        std::string why = checkVerdict(inst, v);
        if (i >= pop.size() &&
            v.bnb.certificate() != first[i % pop.size()].bnb.certificate())
            why = "certificate differs from the same instance's first one";
        if (!why.empty()) {
            ++result.failed;
            ++reasons[why];
        }
        if (i < pop.size())
            first.push_back(std::move(v));
    }
    for (const auto &[why, n] : reasons)
        result.fail(std::to_string(n) + " verdicts: " + why);

    // Thread-count parity, the naive PW floor and the naive Best
    // envelope on a seeded sample.
    BestScheduler listBest(referencePrimaries());
    Rng pick = Rng::stream(opts.seed, 5);
    for (int k = 0; k < referenceSample; ++k) {
        std::size_t i = std::size_t(
            pick.uniformInt(0, std::int64_t(pop.size()) - 1));
        const CertifyInstance &inst = pop[i];
        ++result.attempted;
        bool ok = true;
        if (k == 0) {
            Verdict serial = certify(inst, best, scratch, 1);
            if (serial.bnb.certificate() != first[i].bnb.certificate()) {
                ok = false;
                result.fail("certificate differs between 1 and " +
                            std::to_string(opts.conns) + " threads");
            }
        }
        GraphContext ctx(inst.sb);
        std::vector<int> early =
            reference::lcEarlyRC(ctx, inst.machine);
        std::vector<std::vector<int>> lates;
        for (int bi = 0; bi < inst.sb.numBranches(); ++bi)
            lates.push_back(
                reference::lateRCFor(ctx, inst.machine, bi, early));
        if (reference::pairwiseBounds(ctx, inst.machine, early, lates).wct !=
            first[i].staticBound) {
            ok = false;
            result.fail("PW floor differs from the reference engine");
        }
        // The naive envelope has the four list primaries only; the
        // seed's envelope adds Help and Balance, so it can only be
        // as good or better.
        Schedule want = sched_reference::bestSchedule(
            ctx, inst.machine, steeringWeights(inst.sb, {}));
        Schedule got = listBest.run(ctx, inst.machine);
        for (OpId op = 0; op < inst.sb.numOps(); ++op)
            if (got.issueOf(op) != want.issueOf(op)) {
                ok = false;
                result.fail("Best differs from the reference envelope");
                break;
            }
        if (first[i].seedWct > want.wct(inst.sb)) {
            ok = false;
            result.fail("Best seed worse than the reference envelope");
        }
        result.failed += ok ? 0 : 1;
    }

    double sumWct = 0.0, sumBound = 0.0;
    long long proven = 0;
    std::uint64_t digest = digestInit;
    for (const Verdict &v : first) {
        sumWct += v.bnb.wct;
        sumBound += v.bnb.lowerBound;
        proven += v.bnb.proven ? 1 : 0;
        digest = fold(digest, v.bnb.certificate());
    }
    checkDigest(opts, "certificate_digest", (long long)first.size(), digest,
                result);

    // Medians over windows of consecutive verdicts, as for the serve
    // workloads; each window holds the same size-band mix.
    std::vector<double> p50s, p90s, rates;
    std::size_t n = ms.size();
    for (std::size_t w = 0; w < windows; ++w) {
        std::size_t lo = w * n / windows, hi = (w + 1) * n / windows;
        std::vector<double> v(ms.begin() + long(lo), ms.begin() + long(hi));
        std::sort(v.begin(), v.end());
        if (countAbove(v, 0.90) < 10)
            result.fail("fewer than 10 samples above p90 in a window");
        p50s.push_back(percentile(v, 0.50));
        p90s.push_back(percentile(v, 0.90));
        double start = lo == 0 ? 0.0 : doneS[lo - 1];
        rates.push_back(double(hi - lo) / (doneS[hi - 1] - start));
    }
    std::sort(ms.begin(), ms.end());
    auto &e2e = result.endToEnd;
    result.notes["p50_ms"] = std::to_string(median(p50s));
    result.notes["p90_ms"] = std::to_string(median(p90s));
    result.notes["pooled_p99_ms"] = std::to_string(percentile(ms, 0.99));
    e2e["throughput_sb_per_s"] = {median(rates), "1/s"};
    e2e["peak_rss_mb"] = {peakRssMb(int(::getpid())), "MB"};
    e2e["wct_over_bound"] = {sumWct / sumBound, "ratio"};
    e2e["certified_frac"] = {double(proven) / double(first.size()),
                             "ratio"};
    result.notes["verdicts"] = std::to_string(ms.size());

    if (opts.trace)
        traceCertify(opts, pop, first, best, scratch, result);
    return result;
}

std::pair<long long, std::uint64_t>
expectedCertifyDigest(const Options &opts)
{
    BestScheduler best(HeuristicSet::paperSet(false).primaries);
    SchedScratch scratch;
    std::uint64_t digest = digestInit;
    std::vector<CertifyInstance> pop = makeCertifyInputs(opts.seed,
                                                         certifyCount);
    for (const CertifyInstance &inst : pop) {
        Verdict v = certify(inst, best, scratch, opts.conns);
        digest = fold(digest, v.bnb.certificate());
    }
    return {(long long)pop.size(), digest};
}

} // namespace perfbench

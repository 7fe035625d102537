/**
 * @file
 * The ladder and light workloads against a balance_serviced child.
 *
 * A run sets up several times (generate inputs, start the daemon,
 * warm it) and reports the median set-up time; the last daemon serves
 * the run. An open loop that sends requests at a fixed offered rate,
 * each timed from the moment it was due, alternates with a closed loop
 * with one request in flight per connection that measures capacity.
 * Every response is checked (checks.hh). The traced run adds a serial
 * probe of the daemon and an in-process replay of the same bodies that
 * writes the per-layer ledger (ledger.hh).
 */

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "bounds/bound_scratch.hh"
#include "bounds/branch_bounds.hh"
#include "checks.hh"
#include "client.hh"
#include "core/balance_scheduler.hh"
#include "eval/experiment.hh"
#include "inputs.hh"
#include "ledger.hh"
#include "sched/best_scheduler.hh"
#include "sched/heuristics.hh"
#include "sched/sched_scratch.hh"
#include "service/engine.hh"
#include "service/graph_cache.hh"
#include "service/protocol.hh"
#include "support/json.hh"
#include "support/rng.hh"
#include "workload/sb_io.hh"
#include "workloads.hh"

using namespace balance;

namespace perfbench
{

namespace
{

/**
 * Offered rate of each open loop, requests per second, as a share of
 * the closed-loop capacity this benchmark measures on a 4-vCPU Xeon
 * guest (ladder ~3900 sb/s, light ~27000 sb/s; README.md, "Offered
 * rates"). Ladder runs at a third of it: at a half, queueing made its
 * p50 follow the host's speed (spread 0.27-0.38 across seeds against
 * 0.06 at a third). Light runs at about 45%: its p50 spread is the
 * same at a third and a half. At these loads a request often waits
 * behind another on the shared cores, so CPU freed in any layer also
 * shows as less queueing. Held fixed across commits so that p50_ms
 * stays comparable.
 */
constexpr double ladderRate = 1300.0;
constexpr double lightRate = 12500.0;
/** Share of --seconds in the open loop; the rest measures capacity. */
constexpr double openShare = 0.6;
/**
 * The two loops alternate in this many segments, so each loop's
 * windows spread over the whole run and a host slowdown of a few
 * seconds reaches only some of them. Each segment starts the client's
 * threads and connections afresh, and light's capacity can differ up
 * to 3x between segments as they land on the CPUs differently; thirty
 * segments sampled that better but lost ~12% of light's capacity to
 * the restarts without a steadier result.
 */
constexpr int segments = 5;
/**
 * The response digest covers the first this many open-loop requests
 * (all of them in a shorter run), whatever the rate and --seconds, so
 * the committed expectations in expected_digests.txt hold for every
 * run long enough to reach it.
 */
constexpr long long digestRequests = 8000;
/**
 * Each loop is cut into this many windows (a multiple of segments),
 * and a metric is the least disturbed quarter of its per-window values
 * (common.hh), so host stalls that cover up to three quarters of the
 * windows do not move it.
 */
constexpr int windows = 30;
constexpr int windowsPerSegment = windows / segments;
/** Responses cross-checked against the naive engines per run. */
constexpr int referenceSample = 12;
/** Requests in the traced run's serial probe and replay. */
constexpr int ladderProbe = 400;
constexpr int lightProbe = 1500;
constexpr int healthzProbes = 200;
/** Serial frames per client kind in the delayed-ACK stall probe. */
constexpr int stallProbes = 15;
/**
 * The run is invalid when the generator itself (not the daemon) woke
 * later than this after a request fell due, at p90 (the gated latency
 * percentile) in the median window. Host preemption delays a sleeping
 * client by 5-15 ms about 1% of the time; that shows in the reported
 * p99 lag, not here.
 */
constexpr double lagLimitMs = 1.0;

long long
openCountFor(const Options &opts, bool ladder)
{
    double rate = ladder ? ladderRate : lightRate;
    return (long long)std::llround(rate * opts.seconds * openShare);
}

long long
digestCountFor(const Options &opts, bool ladder)
{
    return std::min(digestRequests, openCountFor(opts, ladder));
}

/** One request as the client saw it. */
struct Outcome
{
    long long req = 0;
    int status = 0; ///< 0 = connection or framing error
    double latencyUs = 0.0;
    double lagUs = 0.0;
    double doneS = 0.0; ///< completion, seconds into the phase
    std::string body;
    std::string cache;
};

Wire
wireOf(const ServeInputs &in, long long req)
{
    return in.wireCycle[std::size_t(req % (long long)in.wireCycle.size())];
}

const BodySpec &
bodyOf(const ServeInputs &in, long long req)
{
    return in.bodies[std::size_t(
        in.sequence[std::size_t(req % (long long)in.sequence.size())])];
}

/**
 * Run one load phase. Open loop when @p period > 0: request r is due
 * at t0 + r * period and requests [base, limit) are sent. Closed loop
 * otherwise: each worker sends back to back until @p deadline. Each
 * wire has its own workers (a persistent frame connection would
 * otherwise hold a handler thread while its worker waits on HTTP);
 * @p base is a multiple of the wire cycle.
 */
std::vector<Outcome>
runPhase(int port, const ServeInputs &in, int conns, long long base,
         long long limit, Clock::time_point t0, double period,
         Clock::time_point deadline, double *elapsed)
{
    int groups = int(in.wireCycle.size());
    int perGroup = std::max(1, conns / groups);
    std::vector<std::atomic<long long>> cursors(
        static_cast<std::size_t>(groups));
    for (auto &c : cursors)
        c.store(0);
    std::vector<std::vector<Outcome>> outs(
        std::size_t(groups * perGroup));
    auto start = Clock::now();
    std::vector<std::thread> workers;
    for (int g = 0; g < groups; ++g) {
        for (int w = 0; w < perGroup; ++w) {
            std::vector<Outcome> &out = outs[std::size_t(g * perGroup + w)];
            workers.emplace_back([&, g] {
                // Sleep precisely: the default 50 us timer slack would
                // show up as generator lag.
                ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
                Wire wire = in.wireCycle[std::size_t(g)];
                FrameConnection frames(port);
                std::atomic<long long> &cursor = cursors[std::size_t(g)];
                for (;;) {
                    long long r = base + g + cursor.fetch_add(1) * groups;
                    Clock::time_point ready = Clock::now();
                    Clock::time_point due = ready;
                    if (period > 0.0) {
                        if (r >= limit)
                            break;
                        due = t0 + std::chrono::duration_cast<
                                       Clock::duration>(
                                       std::chrono::duration<double>(
                                           double(r - base) * period));
                        if (due > ready)
                            std::this_thread::sleep_until(due);
                    } else if (ready >= deadline) {
                        break;
                    }
                    Clock::time_point sendAt = Clock::now();
                    Outcome o;
                    o.req = r;
                    o.lagUs = microsBetween(std::max(due, ready), sendAt);
                    const std::string &body = bodyOf(in, r).body;
                    Reply reply;
                    bool ok = wire == Wire::Http
                                  ? httpRequest(port, "POST", "/schedule",
                                                body, reply)
                                  : frames.exchange(body, reply);
                    Clock::time_point done = Clock::now();
                    o.latencyUs = microsBetween(due, done);
                    o.doneS = microsBetween(start, done) / 1e6;
                    o.status = ok ? reply.status : 0;
                    o.body = std::move(reply.body);
                    o.cache = std::move(reply.cacheHeader);
                    out.push_back(std::move(o));
                }
            });
        }
    }
    for (std::thread &t : workers)
        t.join();
    *elapsed = secondsSince(start);
    std::vector<Outcome> all;
    for (auto &v : outs)
        for (Outcome &o : v)
            all.push_back(std::move(o));
    std::sort(all.begin(), all.end(),
              [](const Outcome &a, const Outcome &b) { return a.req < b.req; });
    return all;
}

/** The counters of the daemon's /stats endpoint this run uses. */
struct DaemonStats
{
    bool ok = false;
    long long hits = 0;
    long long misses = 0;
    long long shed = 0;
};

DaemonStats
fetchStats(int port)
{
    DaemonStats s;
    Reply reply;
    if (!httpRequest(port, "GET", "/stats", "", reply) || reply.status != 200)
        return s;
    JsonParseResult parsed = parseJson(reply.body);
    if (!parsed.ok() || !parsed.value.isObject())
        return s;
    const JsonValue &v = parsed.value;
    const JsonValue *cache = v.find("cache");
    const JsonValue *s429 = v.find("shed_429");
    const JsonValue *s503 = v.find("shed_503");
    if (!cache || !s429 || !s503 || !cache->find("hits") ||
        !cache->find("misses"))
        return s;
    s.hits = cache->get("hits").asInt();
    s.misses = cache->get("misses").asInt();
    s.shed = s429->asInt() + s503->asInt();
    s.ok = true;
    return s;
}

/** The engine's request path, one span per public call (ledger.hh). */
class TracedEngine
{
  public:
    TracedEngine() : best(HeuristicSet::paperSet(false).primaries) {}

    void warm(const Superblock &sb) { cache.acquire(sb); }

    ServiceResult run(const ServiceRequest &req, Tracer &t, int parent,
                      std::string *problem);

    long long twTrips = 0;
    long long twCalls = 0;
    long long twUseful = 0; ///< TW calls whose bound exceeds PW

  private:
    /** A stable model paired with its scratch (as in the engine). */
    struct MachineState
    {
        MachineModel model;
        std::unique_ptr<BoundScratch> scratch;

        explicit MachineState(const MachineModel &m)
            : model(m), scratch(std::make_unique<BoundScratch>(model))
        {}
    };

    MachineState &
    machineFor(const std::string &name)
    {
        std::unique_ptr<MachineState> &slot = machines[name];
        if (!slot) {
            MachineModel m = MachineModel::gp4();
            machineByNameChecked(name, &m);
            slot = std::make_unique<MachineState>(m);
        }
        return *slot;
    }

    GraphContextCache cache;
    std::map<std::string, std::unique_ptr<MachineState>> machines;
    SchedScratch schedScratch;
    BalanceScheduler balance;
    CriticalPathScheduler cp;
    SuccessiveRetirementScheduler sr;
    GStarScheduler gstar;
    DhasyScheduler dhasy;
    HelpScheduler help;
    BestScheduler best;
};

ServiceResult
TracedEngine::run(const ServiceRequest &req, Tracer &t, int parent,
                  std::string *problem)
{
    bool hit = false;
    std::shared_ptr<const CachedGraph> cached;
    int acquireSpan = 0;
    {
        SpanScope s(t, Layer::CacheAcquire, parent);
        cached = cache.acquire(req.sb, &hit);
        acquireSpan = s.id();
    }
    const Superblock &sb = cached->sb;
    if (!hit) {
        SpanScope s(t, Layer::Context, acquireSpan);
        GraphContext replica(sb);
        for (int bi = 0; bi < sb.numBranches(); ++bi) {
            (void)replica.closureOps(bi);
            (void)replica.reversedClosure(bi);
        }
    }
    const GraphContext &ctx = *cached->ctx;
    MachineState &ms = machineFor(req.machine);
    const MachineModel &machine = ms.model;
    BoundScratch &scratch = *ms.scratch;

    ServiceResult out;
    out.name = sb.name();
    out.machine = req.machine;
    out.scheduler = req.scheduler;
    out.cacheHit = hit;

    BoundConfig config;
    std::optional<BoundsToolkit> toolkit;
    int toolkitSpan = 0;
    {
        SpanScope s(t, Layer::Toolkit, parent);
        toolkit.emplace(ctx, machine, config, nullptr, &scratch);
        toolkitSpan = s.id();
    }
    std::vector<int> early;
    {
        SpanScope s(t, Layer::Lc, toolkitSpan);
        early = lcEarlyRCForSuperblock(ctx, machine, config.lc);
    }
    std::vector<std::vector<int>> lates;
    {
        SpanScope s(t, Layer::LateRc, toolkitSpan);
        for (int bi = 0; bi < sb.numBranches(); ++bi)
            lates.push_back(lateRCFor(ctx, machine, bi, early));
    }
    double pwWct = 0.0;
    {
        SpanScope s(t, Layer::Pw, toolkitSpan);
        PairwiseBounds pw(ctx, machine, early, lates, config.pairwise,
                          nullptr, &scratch);
        pwWct = pw.superblockWct();
    }
    if (early != toolkit->earlyRC() || lates != toolkit->lateRCAll() ||
        pwWct != toolkit->pairwise()->superblockWct())
        *problem = "replayed LC/LateRC/PW differ from BoundsToolkit's";

    if (req.bounds) {
        out.haveBounds = true;
        {
            SpanScope s(t, Layer::Rj, parent);
            out.bounds.cp = wctFromBranchEarly(sb, cpEarly(ctx));
            out.bounds.hu = wctFromBranchEarly(sb, huEarly(ctx, machine));
            out.bounds.rj = wctFromBranchEarly(sb, rjEarly(ctx, machine));
            std::vector<int> lcBranches;
            for (OpId b : sb.branches())
                lcBranches.push_back(toolkit->earlyRC()[std::size_t(b)]);
            out.bounds.lc = wctFromBranchEarly(sb, lcBranches);
        }
        out.bounds.pw = toolkit->pairwise()->superblockWct();
        {
            SpanScope s(t, Layer::Tw, parent);
            std::vector<std::vector<int>> lateRCs;
            for (int bi = 0; bi < sb.numBranches(); ++bi)
                lateRCs.push_back(toolkit->lateRC(bi));
            BoundCounters counters;
            out.bounds.tw =
                computeTriplewise(ctx, machine, toolkit->earlyRC(), lateRCs,
                                  *toolkit->pairwise(), config.triplewise,
                                  &counters, &scratch)
                    .wct;
            twTrips += counters.trips;
        }
        ++twCalls;
        twUseful += out.bounds.tw > out.bounds.pw ? 1 : 0;
        out.tightest = out.bounds.tightest();
    }

    ScheduleRequest schedReq;
    schedReq.scratch = &schedScratch;
    const std::string &key = req.scheduler;
    Layer layer = key == "balance" ? Layer::Balance
                  : key == "help"  ? Layer::Help
                  : key == "best"  ? Layer::Best
                                   : Layer::List;
    Schedule schedule;
    {
        SpanScope s(t, layer, parent);
        if (key == "balance")
            schedule = balance.runWithToolkit(ctx, machine, *toolkit,
                                              schedReq);
        else if (key == "cp")
            schedule = cp.run(ctx, machine, schedReq);
        else if (key == "sr")
            schedule = sr.run(ctx, machine, schedReq);
        else if (key == "gstar")
            schedule = gstar.run(ctx, machine, schedReq);
        else if (key == "dhasy")
            schedule = dhasy.run(ctx, machine, schedReq);
        else if (key == "help")
            schedule = help.run(ctx, machine, schedReq);
        else
            schedule = best.run(ctx, machine, schedReq);
    }
    {
        SpanScope s(t, Layer::Validate, parent);
        schedule.validate(sb, machine);
    }
    out.wct = schedule.wct(sb);
    out.makespan = schedule.makespan();
    for (OpId op = 0; op < OpId(sb.numOps()); ++op)
        out.issue.push_back(schedule.issueOf(op));
    return out;
}

/** Per distinct body: the first answer and its check verdict. */
struct Verdict
{
    bool seen = false;
    std::string canonical;
    std::string why; ///< empty when the answer is correct
    ParsedResult parsed;
};

/**
 * The traced run's extra phases: healthz round trips, a serial probe
 * of the first requests, and the untraced/traced in-process replays
 * of the same bodies (ledger.hh).
 */
void
traceServe(const Options &opts, const ServeInputs &in, int port,
           RunResult &result)
{
    std::vector<double> healthz;
    for (int i = 0; i < healthzProbes; ++i) {
        Reply reply;
        auto t0 = Clock::now();
        bool ok = httpRequest(port, "GET", "/healthz", "", reply);
        healthz.push_back(microsBetween(t0, Clock::now()));
        if (!ok || reply.status != 200)
            result.fail("healthz probe failed");
    }

    // What a client without quick ACKs waits per frame (client.hh).
    std::vector<double> frameRtt[2];
    for (int quick = 0; quick < 2; ++quick) {
        FrameConnection frames(port, quick == 1);
        for (int i = 0; i < stallProbes; ++i) {
            Reply reply;
            auto t0 = Clock::now();
            if (!frames.exchange(in.bodies[std::size_t(in.warmup[0])].body,
                                 reply))
                result.fail("frame stall probe failed");
            frameRtt[quick].push_back(microsBetween(t0, Clock::now()));
        }
    }
    result.perLayer["server.frame_stall_ms"] = {
        (median(frameRtt[0]) - median(frameRtt[1])) / 1000.0, "ms"};

    int probes = opts.workload == "ladder" ? ladderProbe : lightProbe;
    std::vector<Outcome> probe;
    {
        FrameConnection frames(port);
        for (int r = 0; r < probes; ++r) {
            Outcome o;
            o.req = r;
            Reply reply;
            const std::string &body = bodyOf(in, r).body;
            auto t0 = Clock::now();
            bool ok = wireOf(in, r) == Wire::Http
                          ? httpRequest(port, "POST", "/schedule", body,
                                        reply)
                          : frames.exchange(body, reply);
            o.latencyUs = microsBetween(t0, Clock::now());
            o.status = ok ? reply.status : 0;
            o.body = std::move(reply.body);
            o.cache = std::move(reply.cacheHeader);
            probe.push_back(std::move(o));
        }
    }

    ProtocolLimits limits;
    EngineOptions engineOpts;
    engineOpts.threads = 1;
    ScheduleEngine untraced(engineOpts);
    TracedEngine traced;
    auto parse = [&](const std::string &body, ServiceRequestSet &set) {
        std::string error;
        if (!parseServiceRequestSet(body, limits, set, &error) ||
            set.requests.size() != 1) {
            result.fail("replay could not parse a body: " + error);
            return false;
        }
        return true;
    };
    for (int b : in.warmup) {
        ServiceRequestSet set;
        if (!parse(in.bodies[std::size_t(b)].body, set))
            return;
        untraced.run(set.requests[0]);
        traced.warm(set.requests[0].sb);
    }

    result.ledger = std::make_shared<Ledger>();
    Tracer &tracer = result.ledger->tracer;
    std::vector<RowLabel> &rows = result.ledger->rows;
    double wallUntraced = 0.0, wallTraced = 0.0, engineTotal = 0.0;
    double overheadSum = 0.0;
    int overheadCount = 0;
    long long mismatches = 0;
    for (int r = 0; r < probes; ++r) {
        const BodySpec &spec = bodyOf(in, r);
        tracer.setRequest(r);

        double engineUs = 0.0;
        int engineSpan = -1;
        std::string bytesUntraced;
        bool hit = false;
        auto runUntraced = [&] {
            auto a0 = Clock::now();
            ServiceRequestSet set;
            if (!parse(spec.body, set))
                return;
            auto e0 = Clock::now();
            ServiceResult res = untraced.run(set.requests[0]);
            engineUs = microsBetween(e0, Clock::now());
            bytesUntraced = renderServiceResponse({res}, set.batch);
            hit = res.cacheHit;
            wallUntraced += microsBetween(a0, Clock::now());
        };
        std::string bytesTraced;
        auto runTraced = [&] {
            auto b0 = Clock::now();
            ServiceRequestSet set;
            int parseSpan = 0;
            {
                SpanScope s(tracer, Layer::ProtocolParse, -1);
                if (!parse(spec.body, set))
                    return;
                parseSpan = s.id();
            }
            {
                SpanScope s(tracer, Layer::SbParse, parseSpan);
                Superblock replica;
                std::string error;
                if (!tryParseSuperblock(in.sbTexts[std::size_t(spec.sb)],
                                        &replica, &error))
                    result.fail("replica .sb parse failed: " + error);
            }
            // Its duration is the untraced engine total, set below.
            engineSpan = tracer.record(Layer::Engine, -1, 0.0);
            std::string problem;
            ServiceResult res =
                traced.run(set.requests[0], tracer, engineSpan, &problem);
            if (!problem.empty())
                result.fail(problem);
            {
                SpanScope s(tracer, Layer::ProtocolRender, -1);
                bytesTraced = renderServiceResponse({res}, set.batch);
            }
            wallTraced += microsBetween(b0, Clock::now());
        };
        // Alternate which replay goes first so neither always finds
        // the caches warm.
        if (r % 2 == 0) {
            runUntraced();
            runTraced();
        } else {
            runTraced();
            runUntraced();
        }
        if (engineSpan >= 0)
            tracer.setDuration(engineSpan, engineUs);
        engineTotal += engineUs;

        const Outcome &o = probe[std::size_t(r)];
        if (o.status != 200 || o.body != bytesUntraced ||
            bytesTraced != bytesUntraced)
            ++mismatches;
        bool sameCacheState =
            o.cache.empty() || (o.cache == "hit") == hit;
        if (o.status == 200 && sameCacheState) {
            overheadSum += o.latencyUs - engineUs;
            ++overheadCount;
        }
        const Superblock &sb = in.superblocks[std::size_t(spec.sb)];
        rows.push_back({sb.name(), sb.numOps(), spec.machine, spec.scheduler,
                        hit});
    }
    if (mismatches > 0)
        result.fail(std::to_string(mismatches) +
                    " replayed responses differ from the socket's bytes");
    result.attempted += probes;
    result.failed += mismatches;

    addSelfTimeMetrics(tracer, probes, result);
    auto &pl = result.perLayer;
    pl["server.healthz_rtt_us"] = {median(healthz), "us"};
    pl["server.overhead_us"] = {
        overheadCount > 0 ? overheadSum / overheadCount : 0.0, "us"};
    pl["bounds.tw_trips"] = {double(traced.twTrips), "count"};
    pl["bounds.tw_useful_frac"] = {
        traced.twCalls > 0 ? double(traced.twUseful) / traced.twCalls : 0.0,
        "ratio"};
    pl["bounds.tw_share"] = {
        engineTotal > 0.0 ? pl["bounds.tw_us"].value * probes / engineTotal
                          : 0.0,
        "ratio"};
    pl["trace.overhead_pct"] = {
        wallUntraced > 0.0
            ? (wallTraced - wallUntraced) / wallUntraced * 100.0
            : 0.0,
        "%"};
}

} // namespace

RunResult
runServe(const Options &opts, bool ladder)
{
    RunResult result;
    Daemon daemon;
    ServeInputs in;
    std::vector<double> setups;
    std::uint64_t firstDigest = 0;
    std::vector<std::string> daemonArgs = {"--handler-threads",
                                           std::to_string(opts.conns)};
    auto setupStart = Clock::now();
    for (int rep = 0; keepSettingUp(rep, setupStart); ++rep) {
        daemon.stop();
        auto t0 = Clock::now();
        in = ladder ? makeLadderInputs(opts.seed) : makeLightInputs(opts.seed);
        std::string error;
        if (!daemon.start(opts.daemonPath, daemonArgs, &error)) {
            result.fail("daemon did not start: " + error);
            return result;
        }
        Reply reply;
        if (!httpRequest(daemon.port(), "GET", "/healthz", "", reply) ||
            reply.status != 200)
            result.fail("daemon is not healthy after start");
        for (int b : in.warmup) {
            if (!httpRequest(daemon.port(), "POST", "/schedule",
                             in.bodies[std::size_t(b)].body, reply) ||
                reply.status != 200)
                result.fail("warm-up request failed");
        }
        setups.push_back(secondsSince(t0));
        if (rep == 0)
            firstDigest = in.digest;
        else if (in.digest != firstDigest)
            result.fail("inputs differ between set-ups of one seed");
    }
    result.endToEnd["setup_s"] = {median(setups), "s"};
    result.notes["inputs_digest"] = hex64(in.digest);
    result.notes["distinct_bodies"] = std::to_string(in.bodies.size());

    int port = daemon.port();
    DaemonStats before = fetchStats(port);

    // Each segment sends its share of the open loop at the fixed offered
    // rate, then runs its share of the closed-loop capacity phase.
    double rate = ladder ? ladderRate : lightRate;
    double openSeconds = opts.seconds * openShare;
    double segmentClosed = (opts.seconds - openSeconds) / segments;
    long long openCount = openCountFor(opts, ladder);
    long long digestCount = digestCountFor(opts, ladder);
    long long groups = (long long)in.wireCycle.size();
    long long closedBase = (openCount + groups - 1) / groups * groups;
    std::vector<Outcome> open, closed;
    // The window of each outcome; -1 for a closed-loop request that
    // ended after its segment's deadline.
    std::vector<int> openWindow, closedWindow;
    double openElapsed = 0.0, closedElapsed = 0.0;
    for (int seg = 0; seg < segments; ++seg) {
        long long lo = openCount * seg / segments / groups * groups;
        long long hi = seg + 1 == segments
                           ? openCount
                           : openCount * (seg + 1) / segments / groups * groups;
        double elapsed = 0.0;
        auto t0 = Clock::now() + std::chrono::milliseconds(20);
        for (Outcome &o : runPhase(port, in, opts.conns, lo, hi, t0,
                                   1.0 / rate, t0, &elapsed)) {
            openWindow.push_back(seg * windowsPerSegment +
                                 int((o.req - lo) * windowsPerSegment /
                                     (hi - lo)));
            open.push_back(std::move(o));
        }
        openElapsed += elapsed;

        auto deadline =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(segmentClosed));
        long long next = closedBase;
        for (Outcome &o : runPhase(port, in, opts.conns, closedBase, -1,
                                   Clock::now(), 0.0, deadline, &elapsed)) {
            int w = int(o.doneS / segmentClosed * windowsPerSegment);
            closedWindow.push_back(w < windowsPerSegment
                                       ? seg * windowsPerSegment + w
                                       : -1);
            next = std::max(next, o.req + 1);
            closed.push_back(std::move(o));
        }
        closedElapsed += elapsed;
        closedBase = (next + groups - 1) / groups * groups;
    }
    DaemonStats after = fetchStats(port);
    double rss = peakRssMb(daemon.pid());

    if (opts.trace)
        traceServe(opts, in, port, result);
    daemon.stop();

    // Correctness of every response.
    std::vector<Verdict> verdicts(in.bodies.size());
    std::map<std::string, int> reasons;
    auto judge = [&](const Outcome &o) {
        if (o.status != 200) {
            ++reasons["HTTP status " + std::to_string(o.status)];
            return false;
        }
        int b = in.sequence[std::size_t(o.req % (long long)in.sequence.size())];
        Verdict &v = verdicts[std::size_t(b)];
        if (!v.seen) {
            const BodySpec &spec = in.bodies[std::size_t(b)];
            v.seen = true;
            v.canonical = o.body;
            v.why = parseResult(o.body, v.parsed);
            if (v.why.empty())
                v.why = checkServeResult(
                    spec, in.superblocks[std::size_t(spec.sb)], v.parsed);
        }
        std::string why = o.body != v.canonical
                              ? "answer differs from an earlier answer to "
                                "the same body"
                              : v.why;
        if (!why.empty())
            ++reasons[why];
        return why.empty();
    };
    // A failed request misses every latency limit: it sorts last.
    std::vector<double> latencyMs;
    std::vector<std::vector<double>> windowMs(windows);
    std::vector<std::vector<double>> windowLagMs(windows);
    std::vector<double> lagMs;
    std::map<Wire, std::vector<double>> wireMs;
    std::uint64_t digest = digestInit;
    for (std::size_t i = 0; i < open.size(); ++i) {
        const Outcome &o = open[i];
        bool ok = judge(o);
        result.failed += ok ? 0 : 1;
        double ms = ok ? o.latencyUs / 1000.0
                       : std::numeric_limits<double>::infinity();
        latencyMs.push_back(ms);
        std::size_t w = std::size_t(openWindow[i]);
        windowMs[w].push_back(ms);
        wireMs[wireOf(in, o.req)].push_back(ms);
        windowLagMs[w].push_back(o.lagUs / 1000.0);
        lagMs.push_back(o.lagUs / 1000.0);
        if (o.req < digestCount)
            digest = fold(digest, o.status == 200 ? o.body : "FAILED");
    }
    std::vector<double> windowDone(windows, 0.0);
    for (std::size_t i = 0; i < closed.size(); ++i) {
        bool ok = judge(closed[i]);
        result.failed += ok ? 0 : 1;
        if (ok && closedWindow[i] >= 0)
            windowDone[std::size_t(closedWindow[i])] += 1.0;
    }
    result.attempted += (long long)(open.size() + closed.size());
    for (const auto &[why, n] : reasons)
        result.fail(std::to_string(n) + " responses: " + why);

    // Seeded reference cross-check of distinct open-loop answers.
    std::vector<int> answered;
    for (const Outcome &o : open) {
        int b = in.sequence[std::size_t(o.req % (long long)in.sequence.size())];
        if (verdicts[std::size_t(b)].seen && verdicts[std::size_t(b)].why.empty())
            answered.push_back(b);
    }
    std::sort(answered.begin(), answered.end());
    answered.erase(std::unique(answered.begin(), answered.end()),
                   answered.end());
    Rng pick = Rng::stream(opts.seed, 4);
    for (int i = 0; i < referenceSample && !answered.empty(); ++i) {
        int b = answered[std::size_t(
            pick.uniformInt(0, std::int64_t(answered.size()) - 1))];
        const BodySpec &spec = in.bodies[std::size_t(b)];
        std::string why =
            referenceCheck(spec, in.superblocks[std::size_t(spec.sb)],
                           verdicts[std::size_t(b)].parsed);
        ++result.attempted;
        if (!why.empty()) {
            ++result.failed;
            result.fail("reference cross-check: " + why);
        }
    }

    // Quality of the distinct open-loop answers against the best
    // proven lower bound (the response's ladder, or computed here).
    double sumWct = 0.0, sumBound = 0.0;
    long long proven = 0, twBelow = 0;
    std::map<std::pair<int, std::string>, double> bounds;
    for (int b : answered) {
        const BodySpec &spec = in.bodies[std::size_t(b)];
        const ParsedResult &r = verdicts[std::size_t(b)].parsed;
        twBelow += twBelowPw(r) ? 1 : 0;
        double bound = r.tightest;
        if (!r.haveBounds) {
            auto key = std::make_pair(spec.sb, spec.machine);
            auto it = bounds.find(key);
            if (it == bounds.end())
                it = bounds
                         .emplace(key, tightestBound(
                                           in.superblocks[std::size_t(spec.sb)],
                                           MachineModel::byName(spec.machine)))
                         .first;
            bound = it->second;
        }
        sumWct += r.wct;
        sumBound += bound;
        proven += r.wct <= bound ? 1 : 0;
    }

    checkDigest(opts, "response_digest", digestCount, digest, result);

    std::sort(latencyMs.begin(), latencyMs.end());
    std::sort(lagMs.begin(), lagMs.end());
    std::vector<double> p50s, p90s, rates, lagP90s;
    for (int w = 0; w < windows; ++w) {
        std::sort(windowLagMs[std::size_t(w)].begin(),
                  windowLagMs[std::size_t(w)].end());
        lagP90s.push_back(percentile(windowLagMs[std::size_t(w)], 0.90));
        std::vector<double> &v = windowMs[std::size_t(w)];
        std::sort(v.begin(), v.end());
        if (countAbove(v, 0.90) < 10)
            result.fail("fewer than 10 samples above p90 in a window");
        p50s.push_back(percentile(v, 0.50));
        p90s.push_back(percentile(v, 0.90));
        rates.push_back(windowDone[std::size_t(w)] * windowsPerSegment /
                        segmentClosed);
    }
    auto joined = [](const std::vector<double> &v) {
        std::string text;
        for (double x : v)
            text += (text.empty() ? "" : " ") + std::to_string(x);
        return text;
    };
    result.notes["window_p50_ms"] = joined(p50s);
    result.notes["window_p90_ms"] = joined(p90s);
    result.notes["window_rate"] = joined(rates);
    double lagP99 = percentile(lagMs, 0.99);
    if (median(lagP90s) > lagLimitMs)
        result.fail("invalid run: the load generator lagged its schedule "
                    "by " + std::to_string(median(lagP90s)) +
                    " ms at p90 in the median window");
    if (!before.ok || !after.ok)
        result.fail("daemon /stats unreadable");

    auto finite = [](double v) { return std::isfinite(v) ? v : 1e9; };
    auto &e2e = result.endToEnd;
    result.notes["p50_ms"] = std::to_string(finite(leastDisturbed(p50s, true)));
    result.notes["p90_ms"] = std::to_string(finite(leastDisturbed(p90s, true)));
    e2e["throughput_sb_per_s"] = {leastDisturbed(rates, false), "1/s"};
    e2e["peak_rss_mb"] = {rss, "MB"};
    e2e["wct_over_bound"] = {sumBound > 0.0 ? sumWct / sumBound : 0.0,
                             "ratio"};
    e2e["certified_frac"] = {
        answered.empty() ? 0.0 : double(proven) / double(answered.size()),
        "ratio"};

    long long dh = after.hits - before.hits;
    long long dm = after.misses - before.misses;
    if (twBelow > 0)
        std::cerr << "perfbench: FINDING: TW < PW on " << twBelow << " of "
                  << answered.size()
                  << " distinct answers (computeTriplewise is not floored "
                     "at PW)\n";

    auto &pl = result.perLayer;
    pl["bounds.tw_below_pw"] = {double(twBelow), "count"};
    pl["graph_cache.hit_frac"] = {dh + dm > 0 ? double(dh) / double(dh + dm)
                                              : 0.0,
                                  "ratio"};
    pl["server.shed"] = {double(after.shed), "count"};
    pl["loadgen.lag_p99_ms"] = {lagP99, "ms"};
    result.notes["open_requests"] = std::to_string(open.size());
    result.notes["closed_requests"] = std::to_string(closed.size());
    result.notes["open_elapsed_s"] = std::to_string(openElapsed);
    result.notes["closed_elapsed_s"] = std::to_string(closedElapsed);
    for (auto &[wire, v] : wireMs) {
        std::sort(v.begin(), v.end());
        std::string name = wire == Wire::Http ? "http" : "frame";
        result.notes[name + "_p50_ms"] = std::to_string(percentile(v, 0.5));
        result.notes[name + "_p90_ms"] = std::to_string(percentile(v, 0.9));
    }
    // Tails, recorded but not gated: on a shared VM they follow the
    // host (see README.md, "End-to-end metrics").
    result.notes["pooled_p99_ms"] = std::to_string(
        finite(percentile(latencyMs, 0.99)));
    result.notes["pooled_p999_ms"] = std::to_string(
        finite(percentile(latencyMs, 0.999)));
    return result;
}

std::pair<long long, std::uint64_t>
expectedServeDigest(const Options &opts, bool ladder)
{
    ServeInputs in =
        ladder ? makeLadderInputs(opts.seed) : makeLightInputs(opts.seed);
    long long count = digestRequests;
    std::vector<std::string> bytes(std::size_t(count), "FAILED");
    ScheduleEngine engine;
    std::atomic<long long> next{0};
    std::vector<std::thread> workers;
    for (int w = 0; w < opts.conns; ++w)
        workers.emplace_back([&] {
            for (long long r; (r = next.fetch_add(1)) < count;) {
                ServiceRequestSet set;
                std::string error;
                if (!parseServiceRequestSet(bodyOf(in, r).body,
                                            ProtocolLimits{}, set, &error))
                    continue;
                std::vector<ServiceResult> results;
                for (const ServiceRequest &req : set.requests)
                    results.push_back(engine.run(req));
                bytes[std::size_t(r)] =
                    renderServiceResponse(results, set.batch);
            }
        });
    for (std::thread &t : workers)
        t.join();
    std::uint64_t digest = digestInit;
    for (const std::string &b : bytes)
        digest = fold(digest, b);
    return {count, digest};
}

} // namespace perfbench

#include "checks.hh"

#include "bounds/reference.hh"
#include "core/balance_scheduler.hh"
#include "graph/analysis.hh"
#include "machine/resource_state.hh"
#include "sched/heuristics.hh"
#include "sched/reference/reference.hh"
#include "sched/schedule.hh"
#include "support/json.hh"

using namespace balance;

namespace perfbench
{

namespace
{

/** Slack of the repository's own ladder-order tests. */
constexpr double ladderSlack = 1e-9;

const JsonValue *
member(const JsonValue &obj, const char *key, bool (JsonValue::*is)() const)
{
    const JsonValue *v = obj.find(key);
    return v && (v->*is)() ? v : nullptr;
}

Schedule
scheduleFrom(const std::vector<int> &issue)
{
    Schedule s(int(issue.size()));
    for (std::size_t op = 0; op < issue.size(); ++op)
        s.setIssue(OpId(op), issue[op]);
    return s;
}

} // namespace

std::string
parseResult(const std::string &body, ParsedResult &out)
{
    JsonParseResult parsed = parseJson(body);
    if (!parsed.ok())
        return "response is not JSON: " + parsed.error.describe();
    const JsonValue &v = parsed.value;
    if (!v.isObject())
        return "response is not an object";
    if (v.find("error"))
        return "service error: " + body;
    const JsonValue *name = member(v, "superblock", &JsonValue::isString);
    const JsonValue *machine = member(v, "machine", &JsonValue::isString);
    const JsonValue *sched = member(v, "scheduler", &JsonValue::isString);
    const JsonValue *wct = member(v, "wct", &JsonValue::isNumber);
    const JsonValue *span = member(v, "makespan", &JsonValue::isInt);
    const JsonValue *issue = member(v, "schedule", &JsonValue::isArray);
    if (!name || !machine || !sched || !wct || !span || !issue)
        return "response lacks a result field";
    out.superblock = name->asString();
    out.machine = machine->asString();
    out.scheduler = sched->asString();
    out.wct = wct->asDouble();
    out.makespan = span->asInt();
    out.issue.clear();
    for (const JsonValue &c : issue->elements()) {
        if (!c.isInt())
            return "non-integer issue cycle";
        out.issue.push_back(int(c.asInt()));
    }
    out.haveBounds = false;
    if (const JsonValue *b = member(v, "bounds", &JsonValue::isObject)) {
        const char *keys[] = {"cp", "hu", "rj", "lc", "pw", "tw", "tightest"};
        double *dst[] = {&out.bounds.cp, &out.bounds.hu, &out.bounds.rj,
                         &out.bounds.lc, &out.bounds.pw, &out.bounds.tw,
                         &out.tightest};
        for (std::size_t i = 0; i < 7; ++i) {
            const JsonValue *x = member(*b, keys[i], &JsonValue::isNumber);
            if (!x)
                return std::string("bounds lack ") + keys[i];
            *dst[i] = x->asDouble();
        }
        out.haveBounds = true;
    }
    return "";
}

std::string
checkSchedule(const Superblock &sb, const MachineModel &machine,
              const std::vector<int> &issue)
{
    if (int(issue.size()) != sb.numOps())
        return "schedule covers " + std::to_string(issue.size()) +
               " ops, superblock has " + std::to_string(sb.numOps());
    for (int c : issue)
        if (c < 0 || c > 1000000)
            return "issue cycle out of range: " + std::to_string(c);
    for (OpId v = 0; v < sb.numOps(); ++v)
        for (const Adjacent &e : sb.succs(v))
            if (issue[std::size_t(e.op)] < issue[std::size_t(v)] + e.latency)
                return "dependence violated: " + std::to_string(v) +
                       " -> " + std::to_string(e.op);
    ResourceState table(machine);
    for (OpId v = 0; v < sb.numOps(); ++v) {
        if (!table.hasSlot(issue[std::size_t(v)], sb.op(v).cls))
            return "resource overflow in cycle " +
                   std::to_string(issue[std::size_t(v)]);
        table.reserve(issue[std::size_t(v)], sb.op(v).cls);
    }
    return "";
}

std::string
checkServeResult(const BodySpec &spec, const Superblock &sb,
                 const ParsedResult &r)
{
    if (r.superblock != sb.name() || r.machine != spec.machine ||
        r.scheduler != spec.scheduler)
        return "result echoes another request (" + r.superblock + "/" +
               r.machine + "/" + r.scheduler + ")";
    if (r.haveBounds != spec.bounds)
        return "bound ladder presence does not match the request";
    MachineModel machine = MachineModel::byName(spec.machine);
    std::string why = checkSchedule(sb, machine, r.issue);
    if (!why.empty())
        return why;
    Schedule s = scheduleFrom(r.issue);
    if (s.wct(sb) != r.wct)
        return "reported wct differs from the schedule's";
    if (r.makespan != s.makespan())
        return "reported makespan differs from the schedule's";
    if (!r.haveBounds)
        return "";
    const WctBounds &b = r.bounds;
    for (double bound : {b.cp, b.hu, b.rj, b.lc, b.pw, b.tw})
        if (bound > r.wct + ladderSlack)
            return "a lower bound exceeds the schedule's WCT";
    if (b.rj > b.pw + ladderSlack)
        return "ladder RJ <= PW violated";
    if (r.tightest != b.tightest() || r.tightest > r.wct + ladderSlack)
        return "tightest bound is not the ladder maximum below WCT";
    return "";
}

std::string
referenceCheck(const BodySpec &spec, const Superblock &sb,
               const ParsedResult &r)
{
    MachineModel machine = MachineModel::byName(spec.machine);
    GraphContext ctx(sb);
    if (r.haveBounds) {
        WctBounds ref = reference::computeWctBounds(ctx, machine);
        if (ref.cp != r.bounds.cp || ref.hu != r.bounds.hu ||
            ref.rj != r.bounds.rj || ref.lc != r.bounds.lc ||
            ref.pw != r.bounds.pw || ref.tw != r.bounds.tw)
            return "bounds differ from the reference engine";
    }

    std::vector<double> weights = steeringWeights(sb, {});
    Schedule want;
    const std::string &key = spec.scheduler;
    if (key == "cp")
        want = sched_reference::listSchedule(
            sb, machine, sched_reference::criticalPathKey(ctx));
    else if (key == "sr")
        want = sched_reference::listSchedule(
            sb, machine, sched_reference::successiveRetirementKey(ctx));
    else if (key == "dhasy")
        want = sched_reference::listSchedule(
            sb, machine, sched_reference::dhasyKey(ctx, weights));
    else if (key == "gstar")
        want = sched_reference::gstarSchedule(ctx, machine, weights);
    else if (key == "help")
        want = HelpScheduler().run(ctx, machine);
    else
        want = BalanceScheduler().run(ctx, machine);
    for (OpId op = 0; op < sb.numOps(); ++op)
        if (want.issueOf(op) != r.issue[std::size_t(op)])
            return "schedule differs from the reference for " + key;
    return "";
}

bool
twBelowPw(const ParsedResult &r)
{
    return r.haveBounds && r.bounds.tw + ladderSlack < r.bounds.pw;
}

double
tightestBound(const Superblock &sb, const MachineModel &machine)
{
    GraphContext ctx(sb);
    return computeWctBounds(ctx, machine).tightest();
}

} // namespace perfbench

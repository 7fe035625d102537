/**
 * @file
 * The traced run's span recorder and per-layer self-time ledger.
 *
 * Spans are recorded in memory by the benchmark's own code around
 * calls into the library's public functions, and written out when the
 * run ends. A span's self time is its duration minus the durations of
 * its children. Where one public call bundles several layers (the
 * GraphContextCache builds a GraphContext on a miss; the
 * BoundsToolkit constructor runs LC, LateRC and PW), the bundle is
 * the parent span and each part is timed as a child on a replica
 * call made right after it with the same inputs; the replica's
 * output is checked equal to the bundle's. The engine total comes
 * from ScheduleEngine::run on the same body in an untraced replay,
 * so engine.run's self time is what the engine does beyond the
 * layers it calls.
 */

#ifndef PERFBENCH_LEDGER_HH
#define PERFBENCH_LEDGER_HH

#include <array>
#include <string>
#include <vector>

#include "common.hh"

namespace balance
{
class JsonWriter;
}

namespace perfbench
{

/** Every layer the ledger attributes time to. */
enum class Layer : int
{
    ProtocolParse,  ///< parseServiceRequestSet
    SbParse,        ///< tryParseSuperblock (replica child of parse)
    Engine,         ///< ScheduleEngine::run (untraced total)
    CacheAcquire,   ///< GraphContextCache::acquire
    Context,        ///< GraphContext construction and warming
    Toolkit,        ///< BoundsToolkit constructor
    Lc,             ///< lcEarlyRCForSuperblock
    LateRc,         ///< lateRCFor, every branch
    Pw,             ///< PairwiseBounds
    Rj,             ///< cpEarly, huEarly, rjEarly and their WCT folds
    Tw,             ///< computeTriplewise
    Balance,        ///< BalanceScheduler::runWithToolkit
    Help,           ///< HelpScheduler::run
    List,           ///< CP / SR / G* / DHASY list schedulers
    Best,           ///< BestScheduler::run
    Validate,       ///< Schedule::validate
    Bnb,            ///< bnbSchedule
    ProtocolRender, ///< renderServiceResponse
    Count
};

constexpr int numLayers = int(Layer::Count);

/** Ledger name of @p layer (the per-layer metric stem). */
const char *layerName(Layer layer);

/** One recorded span; times in microseconds since the tracer epoch. */
struct Span
{
    int request = 0;
    int parent = -1;
    Layer layer = Layer::ProtocolParse;
    double startUs = 0.0;
    double endUs = 0.0;
};

/** In-memory span recorder for one traced replay. */
class Tracer
{
  public:
    Tracer() : epoch(Clock::now()) {}

    /** Start the span tree of request @p request. */
    void setRequest(int request) { current = request; }

    /** Open a span; @return its id. */
    int begin(Layer layer, int parent);

    /** Close span @p id. */
    void end(int id);

    /** Record a span whose duration was measured elsewhere. */
    int record(Layer layer, int parent, double durationUs);

    /** Set the duration of span @p id (for record()ed parents). */
    void setDuration(int id, double durationUs);

    const std::vector<Span> &spans() const { return all; }

    /** Self time per request and layer, in microseconds. */
    std::vector<std::array<double, numLayers>> selfTimes(
        int requests) const;

  private:
    Clock::time_point epoch;
    int current = 0;
    std::vector<Span> all;
};

/** RAII span. */
class SpanScope
{
  public:
    SpanScope(Tracer &t, Layer layer, int parent)
        : tracer(t), spanId(t.begin(layer, parent))
    {}
    ~SpanScope() { tracer.end(spanId); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    int id() const { return spanId; }

  private:
    Tracer &tracer;
    int spanId;
};

/** One ledger row's labels. */
struct RowLabel
{
    std::string name;
    int ops = 0;
    std::string machine;
    std::string scheduler;
    bool cacheHit = false;
};

/** A traced run's spans and the labels of its requests. */
struct Ledger
{
    Tracer tracer;
    std::vector<RowLabel> rows;
};

/**
 * Write the ledger as one JSON object: per-layer self-time totals,
 * one row of self times per request, and the raw spans.
 */
void writeLedger(balance::JsonWriter &w, const Ledger &ledger);

/**
 * Mean self time per request of every layer, as per-layer metrics
 * named "<layer>_us".
 */
void addSelfTimeMetrics(const Tracer &tracer, int requests,
                        RunResult &result);

} // namespace perfbench

#endif // PERFBENCH_LEDGER_HH

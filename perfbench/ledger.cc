#include "ledger.hh"

#include "support/json.hh"

namespace perfbench
{

namespace
{

const char *const names[numLayers] = {
    "protocol.parse", "workload.sb_parse",   "engine.run",
    "graph_cache.acquire", "graph.context", "bounds.toolkit",
    "bounds.lc",      "bounds.laterc",       "bounds.pw",
    "bounds.rj",      "bounds.tw",           "core.balance",
    "core.help",      "sched.list",          "sched.best",
    "sched.validate", "bnb.search",          "protocol.render",
};

} // namespace

const char *
layerName(Layer layer)
{
    return names[int(layer)];
}

int
Tracer::begin(Layer layer, int parent)
{
    Span s;
    s.request = current;
    s.parent = parent;
    s.layer = layer;
    s.startUs = microsBetween(epoch, Clock::now());
    s.endUs = s.startUs;
    all.push_back(s);
    return int(all.size()) - 1;
}

void
Tracer::end(int id)
{
    all[std::size_t(id)].endUs = microsBetween(epoch, Clock::now());
}

int
Tracer::record(Layer layer, int parent, double durationUs)
{
    int id = begin(layer, parent);
    setDuration(id, durationUs);
    return id;
}

void
Tracer::setDuration(int id, double durationUs)
{
    Span &s = all[std::size_t(id)];
    s.endUs = s.startUs + durationUs;
}

std::vector<std::array<double, numLayers>>
Tracer::selfTimes(int requests) const
{
    std::vector<std::array<double, numLayers>> out(
        static_cast<std::size_t>(requests));
    for (auto &row : out)
        row.fill(0.0);
    std::vector<double> self(all.size());
    for (std::size_t i = 0; i < all.size(); ++i)
        self[i] = all[i].endUs - all[i].startUs;
    for (const Span &s : all)
        if (s.parent >= 0)
            self[std::size_t(s.parent)] -= s.endUs - s.startUs;
    for (std::size_t i = 0; i < all.size(); ++i)
        out[std::size_t(all[i].request)][std::size_t(all[i].layer)] +=
            self[i];
    return out;
}

void
writeLedger(balance::JsonWriter &w, const Ledger &ledger)
{
    const std::vector<RowLabel> &rows = ledger.rows;
    std::vector<std::array<double, numLayers>> self =
        ledger.tracer.selfTimes(int(rows.size()));
    std::array<double, numLayers> total{};
    for (const auto &row : self)
        for (int l = 0; l < numLayers; ++l)
            total[std::size_t(l)] += row[std::size_t(l)];

    w.beginObject();
    w.key("requests").value((long long)rows.size());
    w.key("self_us_total").beginObject();
    for (int l = 0; l < numLayers; ++l)
        w.key(names[l]).value(total[std::size_t(l)]);
    w.endObject();
    w.key("rows").beginArray();
    for (std::size_t r = 0; r < rows.size(); ++r) {
        w.beginObject()
            .key("i").value((long long)r)
            .key("superblock").value(rows[r].name)
            .key("ops").value(rows[r].ops)
            .key("machine").value(rows[r].machine)
            .key("scheduler").value(rows[r].scheduler)
            .key("cache_hit").value(rows[r].cacheHit);
        w.key("self_us").beginObject();
        for (int l = 0; l < numLayers; ++l)
            if (self[r][std::size_t(l)] != 0.0)
                w.key(names[l]).value(self[r][std::size_t(l)]);
        w.endObject().endObject();
    }
    w.endArray();
    // Raw spans: [request, parent, layer, start_us, end_us].
    w.key("span_layers").beginArray();
    for (int l = 0; l < numLayers; ++l)
        w.value(names[l]);
    w.endArray();
    w.key("spans").beginArray();
    for (const Span &s : ledger.tracer.spans())
        w.beginArray()
            .value(s.request)
            .value(s.parent)
            .value(int(s.layer))
            .value(s.startUs)
            .value(s.endUs)
            .endArray();
    w.endArray();
    w.endObject();
}

void
addSelfTimeMetrics(const Tracer &tracer, int requests, RunResult &result)
{
    std::array<double, numLayers> total{};
    for (const auto &row : tracer.selfTimes(requests))
        for (int l = 0; l < numLayers; ++l)
            total[std::size_t(l)] += row[std::size_t(l)];
    for (int l = 0; l < numLayers; ++l)
        result.perLayer[std::string(names[l]) + "_us"] = {
            requests > 0 ? total[std::size_t(l)] / requests : 0.0, "us"};
}

} // namespace perfbench

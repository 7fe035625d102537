#include "inputs.hh"

#include <map>
#include <tuple>

#include "common.hh"
#include "support/json.hh"
#include "support/rng.hh"
#include "workload/generator.hh"
#include "workload/sb_io.hh"
#include "workload/suite.hh"

using namespace balance;

namespace perfbench
{

namespace
{

/** Suites pooled into one ladder sample (6615 superblocks each). */
constexpr int ladderSuites = 4;
/**
 * Largest ladder superblock. The 0.6% of suite superblocks above it
 * cost up to 0.6 s each, so a handful would decide a run's tail.
 */
constexpr int ladderMaxOps = 64;
/** light: working-set size (fits the 256-entry cache) and op cap. */
constexpr int lightWorkingSet = 160;
constexpr int lightMaxOps = 24;
/** light: generated sequence length; requests wrap around it. */
constexpr int lightSequence = 1 << 16;

const char *const lightSchedulers[] = {"cp",    "sr",   "gstar",
                                       "dhasy", "help", "balance"};

std::string
renderBody(const std::string &sbText, const std::string &machine,
           const std::string &scheduler, bool bounds)
{
    JsonWriter w;
    w.beginObject()
        .key("superblock").value(sbText)
        .key("machine").value(machine)
        .key("scheduler").value(scheduler)
        .key("bounds").value(bounds)
        .endObject();
    return w.str();
}

template <typename T>
void
shuffle(std::vector<T> &v, Rng &rng)
{
    for (std::size_t i = v.size(); i > 1; --i) {
        std::size_t j = std::size_t(rng.uniformInt(0, std::int64_t(i) - 1));
        std::swap(v[i - 1], v[j]);
    }
}

void
addSuperblock(ServeInputs &in, Superblock sb)
{
    in.sbTexts.push_back(writeSuperblock(sb));
    in.superblocks.push_back(std::move(sb));
}

} // namespace

ServeInputs
makeLadderInputs(std::uint64_t seed)
{
    ServeInputs in;
    for (int k = 0; k < ladderSuites; ++k) {
        SuiteOptions opts;
        opts.seed = subSeed(seed, 100 + std::uint64_t(k));
        opts.scale = 1.0;
        for (BenchmarkProgram &prog : buildSuite(opts))
            for (Superblock &sb : prog.superblocks)
                if (sb.numOps() <= ladderMaxOps)
                    addSuperblock(in, std::move(sb));
    }

    std::vector<MachineModel> machines = MachineModel::paperConfigs();
    Rng rng = Rng::stream(seed, 1);
    std::vector<int> order(in.superblocks.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = int(i);
    shuffle(order, rng);

    in.digest = digestInit;
    for (int sb : order) {
        BodySpec spec;
        spec.sb = sb;
        spec.machine =
            machines[std::size_t(rng.uniformInt(0, 5))].name();
        spec.scheduler = "balance";
        spec.bounds = true;
        spec.body = renderBody(in.sbTexts[std::size_t(sb)], spec.machine,
                               spec.scheduler, true);
        in.digest = fold(in.digest, spec.body);
        in.sequence.push_back(int(in.bodies.size()));
        in.bodies.push_back(std::move(spec));
    }
    in.wireCycle = {Wire::Http};
    // Warm the daemon on the tail of the pass: the first requests of
    // the timed phase still miss.
    for (std::size_t i = in.bodies.size() - 32; i < in.bodies.size(); ++i)
        in.warmup.push_back(int(i));
    return in;
}

ServeInputs
makeLightInputs(std::uint64_t seed)
{
    ServeInputs in;
    SuiteOptions opts;
    opts.seed = subSeed(seed, 200);
    opts.scale = 1.0;
    std::vector<Superblock> small;
    for (BenchmarkProgram &prog : buildSuite(opts))
        for (Superblock &sb : prog.superblocks)
            if (sb.numOps() <= lightMaxOps)
                small.push_back(std::move(sb));
    Rng rng = Rng::stream(seed, 2);
    shuffle(small, rng);
    small.resize(std::min<std::size_t>(small.size(), lightWorkingSet));
    for (Superblock &sb : small)
        addSuperblock(in, std::move(sb));

    std::vector<MachineModel> machines = MachineModel::paperConfigs();
    std::map<std::tuple<int, int, int>, int> ids;
    in.digest = digestInit;
    auto bodyId = [&](int sb, int m, int s) {
        auto [it, fresh] = ids.emplace(std::make_tuple(sb, m, s),
                                       int(in.bodies.size()));
        if (fresh) {
            BodySpec spec;
            spec.sb = sb;
            spec.machine = machines[std::size_t(m)].name();
            spec.scheduler = lightSchedulers[s];
            spec.bounds = false;
            spec.body = renderBody(in.sbTexts[std::size_t(sb)],
                                   spec.machine, spec.scheduler, false);
            in.digest = fold(in.digest, spec.body);
            in.bodies.push_back(std::move(spec));
        }
        return it->second;
    };
    int ws = int(in.superblocks.size());
    for (int i = 0; i < lightSequence; ++i) {
        int sb = int(rng.uniformInt(0, ws - 1));
        int m = int(rng.uniformInt(0, 5));
        int s = int(rng.uniformInt(0, 5));
        in.sequence.push_back(bodyId(sb, m, s));
    }
    in.wireCycle = {Wire::Http, Wire::Frame};
    // One request per working-set superblock fills the cache, so the
    // timed phase hits.
    for (int sb = 0; sb < ws; ++sb)
        in.warmup.push_back(bodyId(sb, 0, 0));
    return in;
}

std::vector<CertifyInstance>
makeCertifyInputs(std::uint64_t seed, int count)
{
    // The band bnb_perf certifies: 50-100 ops, at most 20 blocks.
    GeneratorParams params;
    params.blockGeoP = 0.22;
    params.opsPerBlockMu = 1.7;
    params.opsPerBlockSigma = 0.5;
    params.maxOps = 100;
    params.maxBlocks = 20;

    // B&B cost grows steeply with size, so every seed gets the same
    // mix: instance i draws from size band (i / 2) % 5 of 50-59, ...,
    // 90-100 ops, on GP2 for even i and FS4 for odd i.
    const MachineModel machines[] = {MachineModel::gp2(),
                                     MachineModel::fs4()};
    constexpr int bands = 5;
    std::vector<Superblock> spare[bands];
    std::vector<CertifyInstance> out;
    std::uint64_t stream = 0;
    while (int(out.size()) < count) {
        std::size_t band = (out.size() / 2) % bands;
        while (spare[band].empty()) {
            Rng rng = Rng::stream(subSeed(seed, 300), stream++);
            Superblock sb = generateSuperblock(
                rng, params, "certify.sb" + std::to_string(stream));
            if (sb.numOps() >= 50 && sb.numOps() <= 100)
                spare[std::min(bands - 1, (sb.numOps() - 50) / 10)]
                    .push_back(std::move(sb));
        }
        out.push_back({std::move(spare[band].back()),
                       machines[out.size() % 2]});
        spare[band].pop_back();
    }
    return out;
}

std::uint64_t
certifyDigest(const std::vector<CertifyInstance> &instances)
{
    std::uint64_t h = digestInit;
    for (const CertifyInstance &inst : instances) {
        h = fold(h, writeSuperblock(inst.sb));
        h = fold(h, inst.machine.name());
    }
    return h;
}

} // namespace perfbench

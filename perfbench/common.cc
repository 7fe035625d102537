#include "common.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "support/rng.hh"

namespace perfbench
{

double
percentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    double rank = p * double(sorted.size() - 1);
    std::size_t lo = std::size_t(rank);
    std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = rank - double(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    return percentile(values, 0.5);
}

double
leastDisturbed(std::vector<double> perWindow, bool lowerIsBetter)
{
    std::sort(perWindow.begin(), perWindow.end());
    return percentile(perWindow, lowerIsBetter ? 0.25 : 0.75);
}

std::size_t
countAbove(const std::vector<double> &sorted, double p)
{
    double cut = percentile(sorted, p);
    return std::size_t(sorted.end() -
                       std::upper_bound(sorted.begin(), sorted.end(), cut));
}

double
peakRssMb(int pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kb = -1.0;
            fields >> kb;
            return kb < 0.0 ? -1.0 : kb / 1024.0;
        }
    }
    return -1.0;
}

std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t purpose)
{
    balance::Rng rng = balance::Rng::stream(seed, purpose);
    return rng.next();
}

std::uint64_t
fold(std::uint64_t h, const std::string &text)
{
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    // Separate consecutive items so ("ab","c") != ("a","bc").
    h ^= 0xff;
    h *= 1099511628211ull;
    return h;
}

std::string
hex64(std::uint64_t h)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)h);
    return buf;
}

void
checkDigest(const Options &opts, const std::string &what, long long count,
            std::uint64_t digest, RunResult &result)
{
    namespace fs = std::filesystem;
    std::string got = hex64(digest);
    std::string expected, source;
    std::ifstream committed(opts.digestFile);
    std::string line;
    while (committed && std::getline(committed, line)) {
        std::istringstream fields(line);
        std::string workload, seed, n, d;
        if (line.empty() || line[0] == '#' ||
            !(fields >> workload >> seed >> n >> d))
            continue;
        if (workload == opts.workload && seed == std::to_string(opts.seed) &&
            n == std::to_string(count)) {
            expected = d;
            source = "committed";
        }
    }
    if (source.empty()) {
        fs::path dir = fs::path(opts.stateDir) / "digests";
        std::error_code ec;
        fs::create_directories(dir, ec);
        fs::path file = dir / (opts.workload + "-seed" +
                               std::to_string(opts.seed) + "-n" +
                               std::to_string(count) + ".txt");
        std::ifstream in(file);
        if (in && std::getline(in, expected) && !expected.empty()) {
            source = "stored";
        } else {
            std::ofstream(file) << got << "\n";
            expected = got;
            source = "first run";
        }
    }
    result.notes[what] = got;
    result.notes[what + "_count"] = std::to_string(count);
    result.notes[what + "_expected_from"] = source;
    ++result.attempted;
    if (got != expected) {
        ++result.failed;
        result.fail(what + " " + got + " of the first " +
                    std::to_string(count) + " answers differs from the " +
                    source + " one, " + expected);
    }
}

} // namespace perfbench

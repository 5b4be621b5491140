#include <atomic>
#include <cstring>
#include <mutex>
#include <thread>

#include "verify/differential.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using bpsim::SchemeKind;
using bpsim::verify::RefConfig;
using bpsim::verify::RefScheme;

RefConfig
refConfig(const OracleCheck &check)
{
    RefConfig config;
    switch (check.kind) {
      case SchemeKind::AddressIndexed:
        config.scheme = RefScheme::AddressIndexed;
        break;
      case SchemeKind::GAg: config.scheme = RefScheme::GAg; break;
      case SchemeKind::GAs: config.scheme = RefScheme::GAs; break;
      case SchemeKind::Gshare: config.scheme = RefScheme::Gshare; break;
      case SchemeKind::Path: config.scheme = RefScheme::Path; break;
      case SchemeKind::PAsPerfect:
        config.scheme = RefScheme::PAsPerfect;
        break;
      case SchemeKind::PAsFinite:
        config.scheme = RefScheme::PAsFinite;
        break;
      case SchemeKind::Tage: config.scheme = RefScheme::Tage; break;
      case SchemeKind::Perceptron:
        config.scheme = RefScheme::Perceptron;
        break;
    }
    const bpsim::SweepOptions &o = check.options;
    config.rowBits = check.rowBits;
    config.colBits = check.colBits;
    config.pathBitsPerTarget = o.pathBitsPerTarget;
    config.bhtEntries = o.bhtEntries;
    config.bhtAssoc = o.bhtAssoc;
    config.tagBits = o.tageTagBits;
    config.tageHistories = o.tageHistories;
    config.perceptronTables = o.perceptronTables;
    return config;
}

} // namespace

std::vector<std::string>
runOracleChecks(const std::vector<OracleCheck> &checks)
{
    std::vector<std::string> mismatches;
    std::mutex mutex;
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (std::size_t i = next++; i < checks.size(); i = next++) {
            const OracleCheck &check = checks[i];
            std::string problem;
            try {
                const double reference =
                    bpsim::verify::referenceMispRate(refConfig(check),
                                                     *check.trace);
                if (std::memcmp(&reference, &check.engineValue,
                                sizeof reference) != 0)
                    problem = check.label + ": engine " +
                              std::to_string(check.engineValue) +
                              " vs reference " + std::to_string(reference);
            } catch (const std::exception &e) {
                problem = check.label + ": reference model threw: " +
                          e.what();
            }
            if (!problem.empty()) {
                std::lock_guard<std::mutex> lock(mutex);
                mismatches.push_back(std::move(problem));
            }
        }
    };
    const unsigned threads = std::max(
        1u, std::min<unsigned>(std::thread::hardware_concurrency(),
                               static_cast<unsigned>(checks.size())));
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < threads; ++t)
        pool.emplace_back(worker);
    worker();
    for (std::thread &t : pool)
        t.join();
    return mismatches;
}

void
Digest::add(std::uint64_t word)
{
    for (int byte = 0; byte < 8; ++byte) {
        hash_ ^= (word >> (8 * byte)) & 0xFF;
        hash_ *= 0x100000001B3ull;
    }
}

void
Digest::addDouble(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    add(bits);
}

} // namespace perfbench

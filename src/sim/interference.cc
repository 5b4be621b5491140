#include "sim/interference.hh"

#include <unordered_map>
#include <vector>

#include "common/sat_counter.hh"

namespace bpsim {

namespace {

/** Key for the private (per row+column, per branch) reference table. */
struct PrivateKey
{
    std::uint64_t index;
    Addr pc;

    bool operator==(const PrivateKey &) const = default;
};

struct PrivateKeyHash
{
    std::size_t
    operator()(const PrivateKey &k) const
    {
        // Simple mix; the table is only used offline for analysis.
        std::uint64_t h = k.index * 0x9e3779b97f4a7c15ULL;
        h ^= k.pc + 0x517cc1b727220a95ULL + (h << 6) + (h >> 2);
        return static_cast<std::size_t>(h);
    }
};

/**
 * Lock-step decomposition for one 2-bit configuration: @p row_of gives
 * the raw first-level row before each branch; the private twin gives
 * every (counter index, branch) pair its own counter.
 */
template <typename RowFn>
InterferenceResult
analyzeTwoBitInterference(const PreparedTrace &trace, RowFn row_of,
                          unsigned row_bits, unsigned col_bits)
{
    const std::uint64_t row_mask = mask(row_bits);
    const std::uint64_t col_mask = mask(col_bits);

    std::vector<TwoBitCounter> shared(
        std::size_t{1} << (row_bits + col_bits));
    std::unordered_map<PrivateKey, TwoBitCounter, PrivateKeyHash>
        privateTable;
    privateTable.reserve(trace.size() / 16 + 16);

    InterferenceResult out;
    out.instances = trace.size();

    for (std::size_t i = 0; i < trace.size(); ++i) {
        std::uint64_t row = row_of(i) & row_mask;
        std::uint64_t col = wordIndex(trace.pc(i)) & col_mask;
        auto idx =
            static_cast<std::size_t>((row << col_bits) | col);
        bool taken = trace.taken(i);

        bool shared_pred = shared[idx].predict();
        shared[idx].update(taken);

        const PrivateKey key{idx, trace.pc(i)};
        // A map miss means this (index, pc) pair has never trained:
        // a both-wrong miss here is a cold (first-touch) miss.
        const bool private_fresh =
            privateTable.find(key) == privateTable.end();
        TwoBitCounter &priv = privateTable[key];
        bool private_pred = priv.predict();
        priv.update(taken);

        bool shared_wrong = shared_pred != taken;
        bool private_wrong = private_pred != taken;
        out.sharedMispredicts += shared_wrong;
        out.privateMispredicts += private_wrong;
        if (shared_wrong && !private_wrong) {
            ++out.destructive;
        } else if (!shared_wrong && private_wrong) {
            ++out.constructive;
        } else if (shared_wrong && private_wrong) {
            if (private_fresh)
                ++out.coldMispredicts;
            else
                ++out.capacityMispredicts;
        }
    }
    return out;
}

/**
 * Lock-step decomposition for the multi-table zoo: the shared model
 * aliases across branches exactly as deployed; the private twin gives
 * every static branch its own full model trained on the same stream.
 * @p cold_of classifies a both-wrong miss from (shared step, private
 * model freshness before the step).
 */
template <typename Model, typename Params, typename ColdFn>
InterferenceResult
analyzeModelInterference(const PreparedTrace &trace,
                         const Params &params, ColdFn cold_of)
{
    Model shared(params);
    std::unordered_map<Addr, Model> privates;

    InterferenceResult out;
    out.instances = trace.size();

    for (std::size_t i = 0; i < trace.size(); ++i) {
        const Addr pc = trace.pc(i);
        const std::uint64_t ghist = trace.globalHistory(i);
        const bool taken = trace.taken(i);

        auto it = privates.find(pc);
        if (it == privates.end())
            it = privates.emplace(pc, Model(params)).first;
        const bool private_fresh = it->second.updates() == 0;

        auto shared_step = shared.step(pc, ghist, taken);
        auto private_step = it->second.step(pc, ghist, taken);

        bool shared_wrong = shared_step.prediction != taken;
        bool private_wrong = private_step.prediction != taken;
        out.sharedMispredicts += shared_wrong;
        out.privateMispredicts += private_wrong;
        if (shared_wrong && !private_wrong) {
            ++out.destructive;
        } else if (!shared_wrong && private_wrong) {
            ++out.constructive;
        } else if (shared_wrong && private_wrong) {
            if (cold_of(shared_step, private_fresh))
                ++out.coldMispredicts;
            else
                ++out.capacityMispredicts;
        }
    }
    return out;
}

} // namespace

InterferenceResult
analyzeInterference(const PreparedTrace &trace, SchemeKind kind,
                    unsigned row_bits, unsigned col_bits,
                    const SweepOptions &opts)
{
    // The multi-table zoo replays full models in lock-step; tagged
    // allocation misses land in cold, never aliasing (see header).
    if (kind == SchemeKind::Tage) {
        return analyzeModelInterference<TageModel>(
            trace, tageSweepParams(row_bits, col_bits, opts),
            [](const TageStep &s, bool) {
                return s.providerWasFresh || s.allocated;
            });
    }
    if (kind == SchemeKind::Perceptron) {
        return analyzeModelInterference<PerceptronModel>(
            trace, perceptronSweepParams(row_bits, col_bits, opts),
            [](const PerceptronStep &, bool private_fresh) {
                return private_fresh;
            });
    }

    // The shared table's rows are the sweep's (withTwoBitRows).
    StreamCache cache(trace, opts);
    InterferenceResult out;
    withTwoBitRows(cache, kind, row_bits, [&](auto row_of, auto) {
        out = analyzeTwoBitInterference(trace, row_of, row_bits, col_bits);
    });
    return out;
}

} // namespace bpsim

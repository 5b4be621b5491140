/**
 * @file
 * Tests for the sweep-optimised trace representation: every precomputed
 * stream must agree with a hand-maintained online reference.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <unordered_map>

#include "predictor/bht.hh"
#include "sim/prepared_trace.hh"
#include "sim/sweep.hh"
#include "trace/trace_io.hh"
#include "workload/synthetic.hh"

using namespace bpsim;

namespace {

MemoryTrace
smallWorkload(std::uint64_t seed = 3, std::uint64_t target = 5'000)
{
    WorkloadParams p;
    p.name = "prepared-unit";
    p.seed = seed;
    p.staticBranches = 80;
    p.functionCount = 8;
    p.targetConditionals = target;
    return generateTrace(p);
}

/**
 * @p raw with each conditional branch moved to a pseudo-random byte of
 * its instruction word, as in a variable-length ISA's trace: up to four
 * distinct pcs then share one BHT entry, which is tagged by word index.
 */
MemoryTrace
splitWords(const MemoryTrace &raw)
{
    MemoryTrace out(raw.name());
    for (std::size_t i = 0; i < raw.size(); ++i) {
        BranchRecord rec = raw[i];
        if (rec.isConditional())
            rec.pc += ((i * 2654435761u) >> 7) & 3;
        out.append(rec);
    }
    return out;
}

} // namespace

TEST(PreparedTrace, ExtractsOnlyConditionals)
{
    MemoryTrace raw = smallWorkload();
    PreparedTrace t(raw);
    EXPECT_EQ(t.size(), raw.conditionalCount());
    EXPECT_EQ(t.name(), raw.name());
}

TEST(PreparedTrace, ColumnsMatchSourceRecords)
{
    MemoryTrace raw = smallWorkload();
    PreparedTrace t(raw);
    std::size_t j = 0;
    for (std::size_t i = 0; i < raw.size(); ++i) {
        if (!raw[i].isConditional())
            continue;
        ASSERT_EQ(t.pc(j), raw[i].pc) << "conditional " << j;
        ASSERT_EQ(t.taken(j), raw[i].taken) << "conditional " << j;
        ++j;
    }
    EXPECT_EQ(j, t.size());
}

TEST(PreparedTrace, GlobalHistoryMatchesOnlineShiftRegister)
{
    MemoryTrace raw = smallWorkload();
    PreparedTrace t(raw);
    std::uint64_t ref = 0;
    for (std::size_t i = 0; i < t.size(); ++i) {
        ASSERT_EQ(t.globalHistory(i), ref) << "instance " << i;
        ref = (ref << 1) | (t.taken(i) ? 1 : 0);
    }
}

TEST(PreparedTrace, SelfHistoryMatchesPerBranchRegisters)
{
    MemoryTrace raw = smallWorkload();
    PreparedTrace t(raw);
    std::unordered_map<Addr, std::uint64_t> ref;
    for (std::size_t i = 0; i < t.size(); ++i) {
        ASSERT_EQ(t.selfHistory(i), ref[t.pc(i)]) << "instance " << i;
        auto &h = ref[t.pc(i)];
        h = (h << 1) | (t.taken(i) ? 1 : 0);
    }
}

TEST(PreparedTrace, PathStreamMatchesOnlineRegister)
{
    MemoryTrace raw = smallWorkload();
    PreparedTrace t(raw);

    // Online reference: rebuild from the raw conditional stream.
    std::vector<std::uint64_t> ref;
    std::uint64_t reg = 0;
    for (std::size_t i = 0; i < raw.size(); ++i) {
        const BranchRecord &rec = raw[i];
        if (!rec.isConditional())
            continue;
        ref.push_back(reg);
        Addr successor = rec.taken ? rec.target : rec.pc + 4;
        reg = (reg << 2) | bits(wordIndex(successor), 2);
    }

    auto stream = t.pathHistoryStream(2);
    ASSERT_EQ(stream.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(stream[i], ref[i]) << "instance " << i;
}

TEST(PreparedTrace, BhtStreamMatchesOnlineBht)
{
    // One width-free simulation must reproduce, at every width, the
    // online BHT of that width: every row and the miss rate.  Shapes:
    // the paper's 1024x4, a 64x4, a thrashing 16x4, a direct-mapped
    // 32x1 and a fully associative 32x32 (80 static branches, so all
    // but the first evict constantly); widths up to the table ceiling
    // plus the 64-bit register, where the push count saturates.  The
    // second trace puts several branches in one word (0x1000 and
    // 0x1002, say), so they share an entry and its pushes.
    const MemoryTrace aligned = smallWorkload();
    const PreparedTrace traces[] = {PreparedTrace(aligned),
                                    PreparedTrace(splitWords(aligned))};
    ASSERT_GT(traces[1].staticBranches(), traces[0].staticBranches());
    const std::pair<std::size_t, unsigned> shapes[] = {
        {1024, 4}, {64, 4}, {16, 4}, {32, 1}, {32, 32}};
    std::vector<unsigned> widths;
    for (unsigned r = 0; r <= SweepOptions::kMaxTotalBits; ++r)
        widths.push_back(r);
    widths.push_back(64);
    for (const PreparedTrace &t : traces) {
        for (const auto &[entries, assoc] : shapes) {
            for (BhtResetPolicy policy :
                 {BhtResetPolicy::C3ffPrefix, BhtResetPolicy::Zeros,
                  BhtResetPolicy::Ones, BhtResetPolicy::Hold}) {
                const BhtStream stream =
                    t.bhtStream(entries, assoc, policy);
                ASSERT_EQ(stream.size(), t.size());
                for (unsigned r : widths) {
                    SetAssocBht ref(entries, assoc, r, policy);
                    for (std::size_t i = 0; i < t.size(); ++i) {
                        ASSERT_EQ(stream.row(i, r),
                                  ref.visit(t.pc(i)).history)
                            << t.staticBranches() << " pcs " << entries
                            << "x" << assoc << " "
                            << bhtResetPolicyName(policy) << " width "
                            << r << " instance " << i;
                        ref.recordOutcome(t.pc(i), t.taken(i));
                    }
                    EXPECT_EQ(stream.missRate(), ref.missRate())
                        << entries << "x" << assoc << " width " << r;
                }
            }
        }
    }
}

TEST(PreparedTrace, BhtStreamsDifferByHistoryWidth)
{
    // The 0xC3FF reset prefix depends on the register width, so the
    // rows of different widths are NOT suffixes of one another.
    MemoryTrace raw = smallWorkload(7);
    PreparedTrace t(raw);
    const BhtStream stream =
        t.bhtStream(32, 2, BhtResetPolicy::C3ffPrefix);
    bool low_bits_differ = false;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if ((stream.row(i, 12) & mask(4)) != stream.row(i, 4)) {
            low_bits_differ = true;
            break;
        }
    }
    EXPECT_TRUE(low_bits_differ);
}

TEST(PreparedTrace, EmptyTrace)
{
    MemoryTrace raw("empty");
    PreparedTrace t(raw);
    EXPECT_EQ(t.size(), 0u);
    EXPECT_TRUE(t.pathHistoryStream(2).empty());
    for (BhtResetPolicy policy :
         {BhtResetPolicy::C3ffPrefix, BhtResetPolicy::Hold}) {
        const BhtStream stream = t.bhtStream(16, 4, policy);
        EXPECT_EQ(stream.size(), 0u);
        EXPECT_EQ(stream.missRate(), 0.0);
    }
    EXPECT_DOUBLE_EQ(t.bytesPerBranch(), 0.0);
}

TEST(PreparedTrace, TakenWordsPackOutcomesSixtyFourPerWord)
{
    MemoryTrace raw = smallWorkload(11);
    PreparedTrace t(raw);
    ASSERT_EQ(t.takenWordCount(), (t.size() + 63) / 64);
    for (std::size_t i = 0; i < t.size(); ++i) {
        ASSERT_EQ((t.takenWord(i >> 6) >> (i & 63)) & 1u,
                  t.taken(i) ? 1u : 0u)
            << "instance " << i;
    }
    // Bits past the last branch stay zero (the fused kernel consumes
    // whole words).
    const std::uint64_t last = t.takenWord(t.takenWordCount() - 1);
    for (std::size_t b = t.size() & 63; b != 0 && b < 64; ++b)
        EXPECT_EQ((last >> b) & 1u, 0u) << "tail bit " << b;
}

TEST(PreparedTrace, BytesPerBranchReflectsPackedColumns)
{
    // branch id (4) + ghist (8) + shist (8) + one outcome BIT + 2
    // bytes of successor path bits: ~22.13, not the 33 of the old
    // layout with 8-byte pcs, byte-wide outcomes and 8-byte targets.
    MemoryTrace raw = smallWorkload();
    PreparedTrace t(raw);
    EXPECT_GE(t.bytesPerBranch(), 22.125);
    EXPECT_LT(t.bytesPerBranch(), 22.2);
}

TEST(PreparedTrace, BranchIdsAreDenseInFirstAppearanceOrder)
{
    MemoryTrace raw = smallWorkload(17);
    PreparedTrace t(raw);
    std::map<Addr, std::uint32_t> seen;
    for (std::size_t i = 0; i < t.size(); ++i) {
        const std::uint32_t id = t.branchId(i);
        const auto it = seen.find(t.pc(i));
        if (it == seen.end()) {
            // A new pc takes the next id: dense, first-appearance.
            ASSERT_EQ(id, seen.size()) << "instance " << i;
            seen.emplace(t.pc(i), id);
        } else {
            ASSERT_EQ(id, it->second) << "instance " << i;
        }
        ASSERT_EQ(t.staticPc(id), t.pc(i));
    }
    EXPECT_EQ(t.staticBranches(), seen.size());
    EXPECT_GT(t.staticBranches(), 1u);
    EXPECT_LE(t.staticBranches(), 80u);
}

TEST(PreparedTrace, PcRoundTripsThroughBranchIds)
{
    // Synthetic profile: pc(i) is every conditional record's address.
    MemoryTrace raw = smallWorkload(19);
    PreparedTrace t(raw);
    std::set<Addr> distinct;
    std::size_t j = 0;
    for (std::size_t i = 0; i < raw.size(); ++i) {
        if (!raw[i].isConditional())
            continue;
        ASSERT_EQ(t.pc(j), raw[i].pc) << "conditional " << j;
        distinct.insert(raw[i].pc);
        ++j;
    }
    EXPECT_EQ(j, t.size());
    EXPECT_EQ(t.staticBranches(), distinct.size());

    // A .bpt fixture written and read back through the binary format.
    const std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("bpsim_prepared_ids_" + std::to_string(::getpid()) + ".bpt");
    ASSERT_TRUE(saveTrace(raw, path.string()).ok());
    Result<MemoryTrace> loaded = loadTrace(path.string());
    std::filesystem::remove(path);
    ASSERT_TRUE(loaded.ok());
    PreparedTrace from_file(loaded.value());
    ASSERT_EQ(from_file.size(), t.size());
    EXPECT_EQ(from_file.staticBranches(), t.staticBranches());
    for (std::size_t i = 0; i < t.size(); ++i) {
        ASSERT_EQ(from_file.pc(i), t.pc(i)) << "instance " << i;
        ASSERT_EQ(from_file.branchId(i), t.branchId(i));
    }
}

TEST(PreparedTrace, PathStreamSurvivesSuccessorBitNarrowing)
{
    // The path column keeps only the low 16 successor word-index bits;
    // pathHistoryStream asserts bits_per_target <= 16, so the widest
    // legal request must still see every bit it can shift in.
    MemoryTrace raw = smallWorkload(13);
    PreparedTrace t(raw);
    std::vector<std::uint64_t> ref;
    std::uint64_t reg = 0;
    for (std::size_t i = 0; i < raw.size(); ++i) {
        const BranchRecord &rec = raw[i];
        if (!rec.isConditional())
            continue;
        ref.push_back(reg);
        Addr successor = rec.taken ? rec.target : rec.pc + 4;
        reg = (reg << 16) | bits(wordIndex(successor), 16);
    }
    auto stream = t.pathHistoryStream(16);
    ASSERT_EQ(stream.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(stream[i], ref[i]) << "instance " << i;
}

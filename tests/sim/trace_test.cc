/** @file DRAM trace recording and accelerator trace integration. */

#include <gtest/gtest.h>

#include <algorithm>

#include "fusion/fused_executor.hh"
#include "nn/zoo.hh"
#include "sim/trace.hh"

namespace flcnn {
namespace {

TEST(TraceRecorder, AggregatesAndLogs)
{
    TraceRecorder rec;
    TraceSink sink = rec.sink();
    sink(DramAccess{false, 0x100, 64});
    sink(DramAccess{true, 0x40000000, 128});
    sink(DramAccess{false, 0x200, 32});
    EXPECT_EQ(rec.numAccesses(), 3);
    EXPECT_EQ(rec.readBytes(), 96);
    EXPECT_EQ(rec.writeBytes(), 128);
    ASSERT_EQ(rec.log().size(), 3u);
    EXPECT_FALSE(rec.log()[0].write);
    EXPECT_TRUE(rec.log()[1].write);
}

TEST(TraceRecorder, StatsOnlyMode)
{
    TraceRecorder rec(false);
    rec.record(DramAccess{false, 0, 8});
    EXPECT_EQ(rec.numAccesses(), 1);
    EXPECT_TRUE(rec.log().empty());
}

TEST(TraceRecorder, StringFormat)
{
    TraceRecorder rec;
    rec.record(DramAccess{false, 0x1000, 256});
    rec.record(DramAccess{true, 0x40000000, 64});
    std::string s = rec.str();
    EXPECT_NE(s.find("R 0x00001000 256"), std::string::npos);
    EXPECT_NE(s.find("W 0x40000000 64"), std::string::npos);
    EXPECT_EQ(rec.str(1).find("..."), rec.str(1).size() - 4);
}

TEST(TraceRecorderDeath, ZeroByteAccessPanics)
{
    TraceRecorder rec;
    EXPECT_DEATH(rec.record(DramAccess{false, 0, 0}), "bytes");
}

TEST(FusedExecutorTrace, BytesMatchCountedTraffic)
{
    Network net("tr", Shape{3, 20, 20});
    net.addConvBlock("c1", 4, 3, 1, 1);
    net.addMaxPool("p1", 2, 2);
    net.addConvBlock("c2", 6, 3, 1, 1);

    Rng wrng(61);
    NetworkWeights weights(net, wrng);
    Tensor input(net.inputShape());
    Rng irng(62);
    input.fillRandom(irng);

    FusedExecutor exec(net, weights,
                       TilePlan(net, 0, net.numLayers() - 1));
    // Only aggregates are read below: skip retaining the access log.
    TraceRecorder rec(false);
    exec.setTraceSink(rec.sink());
    RunStats stats;
    exec.run(input, &stats);

    EXPECT_EQ(rec.readBytes(), stats.loadedBytes);
    EXPECT_EQ(rec.writeBytes(), stats.storedBytes);
    EXPECT_GT(rec.numAccesses(), 0);
    EXPECT_TRUE(rec.log().empty());
}

TEST(FusedExecutorTrace, AddressesLiveInTheirRegions)
{
    Network net("tr2", Shape{2, 14, 14});
    net.add(LayerSpec::conv("c1", 3, 3, 1));
    net.add(LayerSpec::conv("c2", 2, 3, 1));

    Rng wrng(63);
    NetworkWeights weights(net, wrng);
    Tensor input(net.inputShape());
    Rng irng(64);
    input.fillRandom(irng);

    FusedExecutor exec(net, weights, TilePlan(net, 0, 1));
    TraceRecorder rec;
    exec.setTraceSink(rec.sink());
    exec.run(input);

    for (const DramAccess &a : rec.log()) {
        if (a.write) {
            EXPECT_GE(a.address, traceOutputBase);
            EXPECT_LT(a.address + static_cast<uint64_t>(a.bytes),
                      traceWeightBase);
        } else {
            EXPECT_LT(a.address + static_cast<uint64_t>(a.bytes),
                      traceOutputBase);
        }
    }
}

TEST(FusedExecutorTrace, ReuseModelNeverRereadsInput)
{
    // The defining trace property of the reuse model: the read
    // intervals are pairwise disjoint (every input byte fetched once).
    Network net("tr3", Shape{2, 18, 18});
    net.addConvBlock("c1", 3, 3, 1, 1);
    net.addConvBlock("c2", 3, 3, 1, 1);

    Rng wrng(65);
    NetworkWeights weights(net, wrng);
    Tensor input(net.inputShape());
    Rng irng(66);
    input.fillRandom(irng);

    FusedExecutor exec(net, weights,
                       TilePlan(net, 0, net.numLayers() - 1));
    TraceRecorder rec;
    exec.setTraceSink(rec.sink());
    exec.run(input);

    std::vector<std::pair<uint64_t, uint64_t>> reads;
    for (const DramAccess &a : rec.log()) {
        if (!a.write)
            reads.emplace_back(a.address,
                               a.address +
                                   static_cast<uint64_t>(a.bytes));
    }
    std::sort(reads.begin(), reads.end());
    for (size_t i = 1; i < reads.size(); i++) {
        EXPECT_LE(reads[i - 1].second, reads[i].first)
            << "re-read at 0x" << std::hex << reads[i].first;
    }
    // And together they cover exactly the input plane.
    uint64_t covered = 0;
    for (const auto &r : reads)
        covered += r.second - r.first;
    EXPECT_EQ(covered, static_cast<uint64_t>(net.inputShape().bytes()));
}

} // namespace
} // namespace flcnn

#include "ditg/decoder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>

namespace onelab::ditg {
namespace {

using sim::millis;
using sim::seconds;

/// Hand-built logs: 10 packets, 100 ms apart, 100 B payload, constant
/// 50 ms OWD, every 4th packet lost, ACK RTT = 2x OWD.
struct SyntheticLogs {
    SyntheticLogs() {
        for (int i = 0; i < 10; ++i) {
            TxRecord tx;
            tx.sequence = std::uint32_t(i);
            tx.payloadBytes = 100;
            tx.txTime = millis(100.0 * i);
            sender.packets.push_back(tx);
            if (i % 4 == 3) continue;  // lost
            RxRecord rx;
            rx.flowId = 1;
            rx.sequence = std::uint32_t(i);
            rx.payloadBytes = 100;
            rx.txTime = tx.txTime;
            rx.rxTime = tx.txTime + millis(50);
            receiver.packets.push_back(rx);
            sender.rtts.push_back(RttRecord{tx.sequence, tx.txTime, millis(100)});
        }
    }
    SenderLog sender;
    ReceiverLog receiver;
};

TEST(ItgDec, BitratePerWindow) {
    SyntheticLogs logs;
    const QosSeries series = ItgDec::decode(logs.sender, logs.receiver, 0.2);
    // Window 0 [0,0.2): arrivals at 50 ms and 150 ms => 200 B => 8 kbps.
    ASSERT_FALSE(series.bitrateKbps.empty());
    EXPECT_NEAR(series.bitrateKbps[0].value, 8.0, 1e-9);
    EXPECT_NEAR(series.bitrateKbps[0].timeSeconds, 0.1, 1e-9);
    // Window 1 [0.2,0.4): arrival at 250 ms only (seq 3 lost) => 4 kbps.
    EXPECT_NEAR(series.bitrateKbps[1].value, 4.0, 1e-9);
}

TEST(ItgDec, ConstantOwdGivesZeroJitter) {
    SyntheticLogs logs;
    const QosSeries series = ItgDec::decode(logs.sender, logs.receiver, 0.2);
    for (const auto& point : series.jitterSeconds) EXPECT_DOUBLE_EQ(point.value, 0.0);
}

TEST(ItgDec, JitterReflectsOwdDeltas) {
    SenderLog sender;
    ReceiverLog receiver;
    // Three packets with OWD 50, 80, 60 ms -> |Δ| = 30, 20 ms. Spaced
    // 100 ms apart so arrival order matches send order (the decoder
    // computes jitter over consecutive ARRIVALS).
    const double owd[] = {50, 80, 60};
    for (int i = 0; i < 3; ++i) {
        TxRecord tx;
        tx.sequence = std::uint32_t(i);
        tx.payloadBytes = 100;
        tx.txTime = millis(100.0 * i);
        sender.packets.push_back(tx);
        RxRecord rx;
        rx.sequence = tx.sequence;
        rx.payloadBytes = 100;
        rx.txTime = tx.txTime;
        rx.rxTime = tx.txTime + millis(owd[i]);
        receiver.packets.push_back(rx);
    }
    const QosSeries series = ItgDec::decode(sender, receiver, 0.2);
    // Arrival 180 ms lands in window 0, arrival 260 ms in window 1.
    ASSERT_EQ(series.jitterSeconds.size(), 2u);
    EXPECT_NEAR(series.jitterSeconds[0].value, 0.030, 1e-9);  // |80-50| ms
    EXPECT_NEAR(series.jitterSeconds[1].value, 0.020, 1e-9);  // |60-80| ms
}

TEST(ItgDec, LossAttributedToSendWindow) {
    SyntheticLogs logs;
    const QosSeries series = ItgDec::decode(logs.sender, logs.receiver, 0.2);
    // Losses at seq 3 (t=0.3) and seq 7 (t=0.7).
    double totalLoss = 0;
    for (const auto& point : series.lossPackets) totalLoss += point.value;
    EXPECT_DOUBLE_EQ(totalLoss, 2.0);
    EXPECT_DOUBLE_EQ(series.lossPackets[1].value, 1.0);  // window [0.2,0.4)
    EXPECT_DOUBLE_EQ(series.lossPackets[3].value, 1.0);  // window [0.6,0.8)
    EXPECT_DOUBLE_EQ(series.lossPackets[0].value, 0.0);
}

TEST(ItgDec, RttAveragedPerAckWindow) {
    SyntheticLogs logs;
    const QosSeries series = ItgDec::decode(logs.sender, logs.receiver, 0.2);
    ASSERT_FALSE(series.rttSeconds.empty());
    for (const auto& point : series.rttSeconds) EXPECT_NEAR(point.value, 0.1, 1e-9);
}

TEST(ItgDec, EmptyLogsProduceEmptySeries) {
    const QosSeries series = ItgDec::decode(SenderLog{}, ReceiverLog{});
    EXPECT_TRUE(series.bitrateKbps.empty());
    const QosSummary summary = ItgDec::summarize(SenderLog{}, ReceiverLog{});
    EXPECT_EQ(summary.sent, 0u);
}

TEST(ItgDec, SummaryTotals) {
    SyntheticLogs logs;
    const QosSummary summary = ItgDec::summarize(logs.sender, logs.receiver);
    EXPECT_EQ(summary.sent, 10u);
    EXPECT_EQ(summary.received, 8u);
    EXPECT_EQ(summary.lost, 2u);
    EXPECT_NEAR(summary.lossRate, 0.2, 1e-9);
    EXPECT_NEAR(summary.meanOwdSeconds, 0.05, 1e-9);
    EXPECT_NEAR(summary.meanRttSeconds, 0.1, 1e-9);
    EXPECT_NEAR(summary.maxJitterSeconds, 0.0, 1e-9);
}

TEST(ItgDec, WindowSizeRespected) {
    SyntheticLogs logs;
    const QosSeries fine = ItgDec::decode(logs.sender, logs.receiver, 0.1);
    const QosSeries coarse = ItgDec::decode(logs.sender, logs.receiver, 0.5);
    EXPECT_GT(fine.bitrateKbps.size(), coarse.bitrateKbps.size());
    EXPECT_DOUBLE_EQ(fine.windowSeconds, 0.1);
}

TEST(ItgDec, OutOfOrderArrivalsSortedForJitter) {
    SenderLog sender;
    ReceiverLog receiver;
    for (int i = 0; i < 2; ++i) {
        TxRecord tx;
        tx.sequence = std::uint32_t(i);
        tx.payloadBytes = 10;
        tx.txTime = millis(10.0 * i);
        sender.packets.push_back(tx);
    }
    // Log entries in reversed arrival order.
    RxRecord late;
    late.sequence = 1;
    late.payloadBytes = 10;
    late.txTime = millis(10);
    late.rxTime = millis(70);
    RxRecord early;
    early.sequence = 0;
    early.payloadBytes = 10;
    early.txTime = millis(0);
    early.rxTime = millis(50);
    receiver.packets.push_back(late);
    receiver.packets.push_back(early);
    const QosSeries series = ItgDec::decode(sender, receiver, 0.2);
    ASSERT_EQ(series.jitterSeconds.size(), 1u);
    EXPECT_NEAR(series.jitterSeconds[0].value, 0.010, 1e-9);  // |60-50| ms
}

TEST(ItgDec, DuplicateArrivalsCountOnceInSummary) {
    // UDP duplication (or a TCP retransmission the receiver logged
    // twice) must not report received > sent or negative loss: the
    // summary counts first arrivals only. The raw log keeps both
    // records — it is the measurement.
    SyntheticLogs logs;
    RxRecord dup = logs.receiver.packets[1];
    dup.rxTime = dup.rxTime + millis(40);
    logs.receiver.packets.push_back(dup);
    const QosSummary summary = ItgDec::summarize(logs.sender, logs.receiver);
    EXPECT_EQ(summary.sent, 10u);
    EXPECT_EQ(summary.received, 8u);  // 8 unique of 9 arrivals
    EXPECT_EQ(summary.lost, 2u);
    EXPECT_NEAR(summary.meanOwdSeconds, 0.050, 1e-9);  // dup's OWD excluded
}


/// Seeded logs with duplicates, reordering and sequence numbers far
/// apart: runs near 0, 2^31 and the top of the 32-bit range.
struct ScatteredLogs {
    explicit ScatteredLogs(std::uint32_t seed) {
        std::mt19937 rng(seed);
        const std::uint32_t bases[] = {0u, 0x80000000u, 0xfffffff0u};
        std::int64_t txMs = 0;
        for (const std::uint32_t base : bases) {
            for (std::uint32_t offset = 0; offset < 16; ++offset) {
                TxRecord tx;
                tx.sequence = base + offset;
                tx.payloadBytes = 100 + rng() % 900;
                tx.txTime = millis(double(txMs));
                txMs += 1 + std::int64_t(rng() % 40);
                sender.packets.push_back(tx);
                if (rng() % 5 == 0) continue;  // lost
                const int copies = rng() % 4 == 0 ? 2 + int(rng() % 2) : 1;
                for (int copy = 0; copy < copies; ++copy) {
                    RxRecord rx;
                    rx.flowId = 1;
                    rx.sequence = tx.sequence;
                    rx.payloadBytes = tx.payloadBytes;
                    rx.txTime = tx.txTime;
                    rx.rxTime = tx.txTime + millis(20.0 + double(rng() % 400));
                    receiver.packets.push_back(rx);
                }
                if (rng() % 2 == 0)
                    sender.rtts.push_back(RttRecord{tx.sequence, tx.txTime, millis(80)});
            }
        }
        // The receiver logs in arrival order, which reorders sequences.
        std::stable_sort(receiver.packets.begin(), receiver.packets.end(),
                         [](const RxRecord& a, const RxRecord& b) { return a.rxTime < b.rxTime; });
    }
    SenderLog sender;
    ReceiverLog receiver;
};

TEST(ItgDec, LossAndDedupMatchSetReference) {
    for (const std::uint32_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
        SCOPED_TRACE(seed);
        const ScatteredLogs logs(seed);
        const double window = 0.2;

        // decode: a sent sequence is lost unless some arrival carries it.
        std::set<std::uint32_t> delivered;
        for (const RxRecord& rx : logs.receiver.packets) delivered.insert(rx.sequence);
        const QosSeries series = ItgDec::decode(logs.sender, logs.receiver, window);
        std::vector<double> expectedLoss(series.lossPackets.size(), 0.0);
        const sim::SimTime start = logs.sender.packets.front().txTime;
        for (const TxRecord& tx : logs.sender.packets) {
            if (delivered.count(tx.sequence)) continue;
            const auto w = std::size_t(sim::toSeconds(tx.txTime - start) / window);
            ASSERT_LT(w, expectedLoss.size());
            expectedLoss[w] += 1.0;
        }
        ASSERT_EQ(series.lossPackets.size(), expectedLoss.size());
        for (std::size_t w = 0; w < expectedLoss.size(); ++w)
            EXPECT_EQ(series.lossPackets[w].value, expectedLoss[w]) << "window " << w;

        // summarize: only the first arrival of each sequence counts, in
        // arrival order. A log deduplicated that way summarizes the same.
        ReceiverLog firstArrivals;
        std::set<std::uint32_t> seen;
        for (const RxRecord& rx : logs.receiver.packets)
            if (seen.insert(rx.sequence).second) firstArrivals.packets.push_back(rx);
        ASSERT_LT(firstArrivals.packets.size(), logs.receiver.packets.size());
        const QosSummary got = ItgDec::summarize(logs.sender, logs.receiver);
        const QosSummary want = ItgDec::summarize(logs.sender, firstArrivals);
        EXPECT_EQ(got.sent, logs.sender.packets.size());
        EXPECT_EQ(got.received, firstArrivals.packets.size());
        EXPECT_EQ(got.lost, logs.sender.packets.size() - firstArrivals.packets.size());
        EXPECT_EQ(got.lossRate, want.lossRate);
        EXPECT_EQ(got.meanBitrateKbps, want.meanBitrateKbps);
        EXPECT_EQ(got.maxBitrateKbps, want.maxBitrateKbps);
        EXPECT_EQ(got.meanJitterSeconds, want.meanJitterSeconds);
        EXPECT_EQ(got.maxJitterSeconds, want.maxJitterSeconds);
        EXPECT_EQ(got.meanRttSeconds, want.meanRttSeconds);
        EXPECT_EQ(got.maxRttSeconds, want.maxRttSeconds);
        EXPECT_EQ(got.meanOwdSeconds, want.meanOwdSeconds);
    }
}

}  // namespace
}  // namespace onelab::ditg

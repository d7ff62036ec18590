#include "ditg/decoder.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

namespace onelab::ditg {

QosSeries ItgDec::decode(const SenderLog& sender, const ReceiverLog& receiver,
                         double windowSeconds) {
    QosSeries series;
    series.windowSeconds = windowSeconds;
    if (sender.packets.empty()) return series;

    const sim::SimTime start = sender.packets.front().txTime;
    auto windowOf = [&](sim::SimTime t) {
        return std::size_t(std::max(0.0, sim::toSeconds(t - start)) / windowSeconds);
    };
    auto windowCenter = [&](std::size_t w) { return (double(w) + 0.5) * windowSeconds; };

    // Horizon: last activity on either side.
    sim::SimTime horizon = sender.packets.back().txTime;
    for (const RxRecord& rx : receiver.packets) horizon = std::max(horizon, rx.rxTime);
    const std::size_t windowCount = windowOf(horizon) + 1;

    // --- bitrate: received payload bytes per window of arrival ---
    std::vector<double> bytesPerWindow(windowCount, 0.0);
    for (const RxRecord& rx : receiver.packets) {
        const std::size_t w = windowOf(rx.rxTime);
        if (w < windowCount) bytesPerWindow[w] += double(rx.payloadBytes);
    }

    // --- jitter: mean |ΔOWD| between consecutive arrivals ---
    std::vector<RxRecord> arrivals = receiver.packets;
    std::sort(arrivals.begin(), arrivals.end(),
              [](const RxRecord& a, const RxRecord& b) { return a.rxTime < b.rxTime; });
    std::vector<util::OnlineStats> jitterPerWindow(windowCount);
    for (std::size_t i = 1; i < arrivals.size(); ++i) {
        const double owdPrev = sim::toSeconds(arrivals[i - 1].rxTime - arrivals[i - 1].txTime);
        const double owdCur = sim::toSeconds(arrivals[i].rxTime - arrivals[i].txTime);
        const std::size_t w = windowOf(arrivals[i].rxTime);
        if (w < windowCount) jitterPerWindow[w].add(std::abs(owdCur - owdPrev));
    }

    // --- loss: packets sent in a window that never arrived ---
    std::vector<std::uint32_t> deliveredSequences;
    deliveredSequences.reserve(receiver.packets.size());
    for (const RxRecord& rx : receiver.packets) deliveredSequences.push_back(rx.sequence);
    std::sort(deliveredSequences.begin(), deliveredSequences.end());
    std::vector<double> lossPerWindow(windowCount, 0.0);
    for (const TxRecord& tx : sender.packets) {
        if (std::binary_search(deliveredSequences.begin(), deliveredSequences.end(),
                               tx.sequence))
            continue;
        const std::size_t w = windowOf(tx.txTime);
        if (w < windowCount) lossPerWindow[w] += 1.0;
    }

    // --- RTT: mean per window of ACK arrival ---
    std::vector<util::OnlineStats> rttPerWindow(windowCount);
    for (const RttRecord& rtt : sender.rtts) {
        const std::size_t w = windowOf(rtt.txTime + rtt.rtt);
        if (w < windowCount) rttPerWindow[w].add(sim::toSeconds(rtt.rtt));
    }

    // --- OWD: mean per arrival window (clocks are synchronised in the
    // simulation, so OWD is exact — D-ITG needs NTP for this) ---
    std::vector<util::OnlineStats> owdPerWindow(windowCount);
    for (const RxRecord& rx : receiver.packets) {
        const std::size_t w = windowOf(rx.rxTime);
        if (w < windowCount) owdPerWindow[w].add(sim::toSeconds(rx.rxTime - rx.txTime));
    }

    for (std::size_t w = 0; w < windowCount; ++w) {
        const double t = windowCenter(w);
        series.bitrateKbps.push_back({t, bytesPerWindow[w] * 8.0 / windowSeconds / 1000.0});
        series.lossPackets.push_back({t, lossPerWindow[w]});
        if (jitterPerWindow[w].count() > 0)
            series.jitterSeconds.push_back({t, jitterPerWindow[w].mean()});
        if (rttPerWindow[w].count() > 0)
            series.rttSeconds.push_back({t, rttPerWindow[w].mean()});
        if (owdPerWindow[w].count() > 0)
            series.owdSeconds.push_back({t, owdPerWindow[w].mean()});
    }
    return series;
}

QosSummary ItgDec::summarize(const SenderLog& sender, const ReceiverLog& receiver) {
    // Network duplicates (or a TCP retransmission logged twice) must
    // not count as extra deliveries: keep the first arrival of each
    // sequence number. The dedup lives here in summarize() only — the
    // raw log is the measurement and is stored/encoded untouched.
    // Sorting (sequence, arrival index) pairs puts each sequence's
    // first arrival at the head of its run.
    ReceiverLog unique;
    unique.transport = receiver.transport;
    {
        std::vector<std::pair<std::uint32_t, std::size_t>> bySequence;
        bySequence.reserve(receiver.packets.size());
        for (std::size_t i = 0; i < receiver.packets.size(); ++i)
            bySequence.emplace_back(receiver.packets[i].sequence, i);
        std::sort(bySequence.begin(), bySequence.end());
        std::vector<std::size_t> firstArrivals;
        firstArrivals.reserve(bySequence.size());
        for (std::size_t i = 0; i < bySequence.size(); ++i)
            if (i == 0 || bySequence[i].first != bySequence[i - 1].first)
                firstArrivals.push_back(bySequence[i].second);
        std::sort(firstArrivals.begin(), firstArrivals.end());
        unique.packets.reserve(firstArrivals.size());
        for (const std::size_t i : firstArrivals) unique.packets.push_back(receiver.packets[i]);
    }

    QosSummary summary;
    summary.sent = sender.packets.size();
    summary.received = unique.packets.size();
    summary.lost = summary.sent >= summary.received ? summary.sent - summary.received : 0;
    summary.lossRate = summary.sent ? double(summary.lost) / double(summary.sent) : 0.0;

    const QosSeries series = decode(sender, unique);
    const auto bitrate = util::summarize(series.bitrateKbps);
    summary.meanBitrateKbps = bitrate.mean;
    summary.maxBitrateKbps = bitrate.max;
    const auto jitter = util::summarize(series.jitterSeconds);
    summary.meanJitterSeconds = jitter.mean;
    summary.maxJitterSeconds = jitter.max;
    const auto rtt = util::summarize(series.rttSeconds);
    summary.meanRttSeconds = rtt.mean;
    summary.maxRttSeconds = rtt.max;

    util::OnlineStats owd;
    for (const RxRecord& rx : unique.packets)
        owd.add(sim::toSeconds(rx.rxTime - rx.txTime));
    summary.meanOwdSeconds = owd.mean();
    return summary;
}

}  // namespace onelab::ditg

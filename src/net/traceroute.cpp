#include "net/traceroute.hpp"

namespace onelab::net {

void Traceroute::run(Ipv4Address destination,
                     std::function<void(std::vector<TracerouteHop>)> done, Options options) {
    if (running_) {
        if (done) done({});
        return;
    }
    running_ = true;
    destination_ = destination;
    done_ = std::move(done);
    options_ = options;
    hops_.clear();

    stack_.setIcmpErrorHandler([this](const Packet& error) {
        // Match the error to our outstanding probe via the embedded
        // original datagram (dst port encodes the TTL).
        const auto embedded =
            parseIcmpErrorPayload({error.payload.data(), error.payload.size()});
        if (!embedded.ok() || embedded.value().protocol != IpProto::udp) return;
        if (embedded.value().dst != destination_) return;
        const int ttl = int(embedded.value().dstPort) - int(options_.basePort);
        if (ttl != int(hops_.size()) + 1) return;  // stale probe

        TracerouteHop hop;
        hop.ttl = ttl;
        hop.router = error.ip.src;
        hop.rtt = sim_.now() - probeSentAt_;
        hop.reachedDestination = error.icmp.type == icmp_type::dest_unreachable;
        finishHop(hop);
    });
    probe(1);
}

void Traceroute::probe(int ttl) {
    Packet pkt = makeUdpPacket(Ipv4Address{}, std::uint16_t(40000 + ttl), destination_,
                               std::uint16_t(options_.basePort + ttl), util::Bytes(12, 0));
    pkt.ip.ttl = std::uint8_t(ttl);
    pkt.sliceXid = options_.sliceXid;
    probeSentAt_ = sim_.now();
    const auto sent = stack_.sendPacket(std::move(pkt));
    if (!sent.ok()) {
        TracerouteHop hop;
        hop.ttl = ttl;
        hop.timedOut = true;
        finishHop(hop);
        return;
    }
    timeout_ = sim_.schedule(options_.probeTimeout, [this, ttl] {
        timeout_ = {};
        TracerouteHop hop;
        hop.ttl = ttl;
        hop.timedOut = true;
        finishHop(hop);
    });
}

void Traceroute::finishHop(TracerouteHop hop) {
    if (!running_) return;
    if (timeout_.valid()) {
        sim_.cancel(timeout_);
        timeout_ = {};
    }
    hops_.push_back(hop);
    if (hop.reachedDestination || int(hops_.size()) >= options_.maxHops) {
        running_ = false;
        stack_.setIcmpErrorHandler(nullptr);
        if (done_) {
            auto done = std::move(done_);
            done_ = nullptr;
            done(hops_);
        }
        return;
    }
    probe(int(hops_.size()) + 1);
}

}  // namespace onelab::net

#include <gtest/gtest.h>

#include "net/traceroute.hpp"
#include "scenario/testbed.hpp"

namespace onelab::net {
namespace {

TEST(IcmpError, PayloadEmbedsOffendingDatagram) {
    const Packet offending = makeUdpPacket(Ipv4Address{10, 0, 0, 1}, 40001,
                                           Ipv4Address{10, 0, 0, 2}, 33435,
                                           util::Bytes(64, 0xaa));
    const Packet error =
        makeIcmpError(Ipv4Address{10, 0, 0, 254}, icmp_type::time_exceeded, 0, offending);
    EXPECT_EQ(error.ip.dst, offending.ip.src);
    EXPECT_EQ(error.ip.src, (Ipv4Address{10, 0, 0, 254}));
    EXPECT_EQ(error.payload.size(), 28u);  // IP header + 8 bytes of UDP

    const auto embedded = parseIcmpErrorPayload({error.payload.data(), error.payload.size()});
    ASSERT_TRUE(embedded.ok());
    EXPECT_EQ(embedded.value().src, offending.ip.src);
    EXPECT_EQ(embedded.value().dst, offending.ip.dst);
    EXPECT_EQ(embedded.value().protocol, IpProto::udp);
    EXPECT_EQ(embedded.value().srcPort, 40001);
    EXPECT_EQ(embedded.value().dstPort, 33435);
}

TEST(IcmpError, PayloadCarriesTcpPorts) {
    const Packet offending = makeTcpSegment(Ipv4Address{10, 0, 0, 1}, 40001,
                                            Ipv4Address{10, 0, 0, 2}, 80, TcpHeader{});
    const Packet error =
        makeIcmpError(Ipv4Address{10, 0, 0, 254}, icmp_type::dest_unreachable, 1, offending);
    const auto embedded = parseIcmpErrorPayload({error.payload.data(), error.payload.size()});
    ASSERT_TRUE(embedded.ok());
    EXPECT_EQ(embedded.value().protocol, IpProto::tcp);
    EXPECT_EQ(embedded.value().srcPort, 40001);
    EXPECT_EQ(embedded.value().dstPort, 80);
}

TEST(IcmpError, ParseRejectsGarbage) {
    EXPECT_FALSE(parseIcmpErrorPayload({}).ok());
    const util::Bytes junk(10, 0x60);  // version 6 nibble
    EXPECT_FALSE(parseIcmpErrorPayload({junk.data(), junk.size()}).ok());
}

TEST(IcmpError, ErrorSurvivesSerialization) {
    const Packet offending = makeUdpPacket(Ipv4Address{1, 1, 1, 1}, 1000,
                                           Ipv4Address{2, 2, 2, 2}, 2000, util::Bytes(20, 0));
    const Packet error =
        makeIcmpError(Ipv4Address{3, 3, 3, 3}, icmp_type::dest_unreachable, 3, offending);
    const util::Bytes wire = error.serialize();
    const auto parsed = Packet::parse({wire.data(), wire.size()});
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().icmp.type, icmp_type::dest_unreachable);
    EXPECT_EQ(parsed.value().icmp.code, 3);
    const auto embedded = parseIcmpErrorPayload(
        {parsed.value().payload.data(), parsed.value().payload.size()});
    ASSERT_TRUE(embedded.ok());
    EXPECT_EQ(embedded.value().dstPort, 2000);
}

TEST(IcmpError, PortUnreachableGeneratedOnClosedPort) {
    scenario::Testbed tb;
    int errors = 0;
    std::uint8_t lastType = 0;
    tb.napoli().stack().setIcmpErrorHandler([&](const Packet& pkt) {
        ++errors;
        lastType = pkt.icmp.type;
    });
    auto socket = tb.napoli().openSliceUdp(tb.umtsSlice()).value();
    ASSERT_TRUE(socket->sendTo(tb.inriaEthAddress(), 44444, util::Bytes{1}).ok());
    tb.sim().runUntil(sim::seconds(1.0));
    EXPECT_EQ(errors, 1);
    EXPECT_EQ(lastType, icmp_type::dest_unreachable);
}

TEST(IcmpError, SuppressedWhenDisabled) {
    scenario::Testbed tb;
    tb.inria().stack().setIcmpErrorsEnabled(false);
    int errors = 0;
    tb.napoli().stack().setIcmpErrorHandler([&](const Packet&) { ++errors; });
    auto socket = tb.napoli().openSliceUdp(tb.umtsSlice()).value();
    ASSERT_TRUE(socket->sendTo(tb.inriaEthAddress(), 44444, util::Bytes{1}).ok());
    tb.sim().runUntil(sim::seconds(1.0));
    EXPECT_EQ(errors, 0);
}

TEST(Traceroute, EthernetPathIsOneHop) {
    scenario::Testbed tb;
    Traceroute traceroute{tb.sim(), tb.napoli().stack()};
    std::optional<std::vector<TracerouteHop>> hops;
    traceroute.run(tb.inriaEthAddress(),
                   [&](std::vector<TracerouteHop> h) { hops = std::move(h); });
    tb.sim().runUntil(sim::seconds(10.0));
    ASSERT_TRUE(hops.has_value());
    ASSERT_EQ(hops->size(), 1u);
    EXPECT_TRUE(hops->at(0).reachedDestination);
    EXPECT_EQ(hops->at(0).router, tb.inriaEthAddress());
    EXPECT_GT(sim::toMillis(hops->at(0).rtt), 15.0);
}

TEST(Traceroute, UmtsPathShowsGgsnThenDestination) {
    scenario::Testbed tb;
    ASSERT_TRUE(tb.startUmts().ok());
    ASSERT_TRUE(tb.addUmtsDestination(tb.inriaEthAddress().str() + "/32").ok());

    Traceroute traceroute{tb.sim(), tb.napoli().stack()};
    TracerouteOptions options;
    options.sliceXid = tb.umtsSlice().xid;  // marked -> rides ppp0
    std::optional<std::vector<TracerouteHop>> hops;
    traceroute.run(tb.inriaEthAddress(),
                   [&](std::vector<TracerouteHop> h) { hops = std::move(h); }, options);
    tb.sim().runUntil(tb.sim().now() + sim::seconds(30.0));
    ASSERT_TRUE(hops.has_value());
    ASSERT_EQ(hops->size(), 2u);
    // Hop 1: the GGSN (time exceeded), across the radio.
    EXPECT_FALSE(hops->at(0).reachedDestination);
    EXPECT_EQ(hops->at(0).router, tb.operatorNetwork().profile().ggsnAddress);
    EXPECT_GT(sim::toMillis(hops->at(0).rtt), 100.0);
    // Hop 2: INRIA (port unreachable, RELATED-admitted through the
    // operator firewall).
    EXPECT_TRUE(hops->at(1).reachedDestination);
    EXPECT_EQ(hops->at(1).router, tb.inriaEthAddress());
    EXPECT_GT(hops->at(1).rtt, hops->at(0).rtt / 2);
}

TEST(Traceroute, UnroutableDestinationTimesOut) {
    scenario::Testbed tb;
    Traceroute traceroute{tb.sim(), tb.napoli().stack()};
    TracerouteOptions options;
    options.maxHops = 2;
    options.probeTimeout = sim::seconds(1.0);
    std::optional<std::vector<TracerouteHop>> hops;
    traceroute.run(Ipv4Address{203, 0, 113, 99},
                   [&](std::vector<TracerouteHop> h) { hops = std::move(h); }, options);
    tb.sim().runUntil(sim::seconds(10.0));
    ASSERT_TRUE(hops.has_value());
    ASSERT_EQ(hops->size(), 2u);
    EXPECT_TRUE(hops->at(0).timedOut);
    EXPECT_TRUE(hops->at(1).timedOut);
}

}  // namespace
}  // namespace onelab::net

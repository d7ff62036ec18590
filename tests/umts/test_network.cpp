#include "umts/network.hpp"

#include <gtest/gtest.h>

namespace onelab::umts {
namespace {

struct NetworkTest : ::testing::Test {
    explicit NetworkTest(OperatorProfile profile = commercialItalianOperator())
        : internet(sim, util::RandomStream{5}),
          network(sim, internet, std::move(profile), util::RandomStream{6}) {}

    /// Attach + activate synchronously (driving the simulator).
    UmtsSession* bringUpSession(const std::string& imsi = "222880000000001") {
        bool attached = false;
        network.attachUe(imsi, [&](util::Result<void> r) { attached = r.ok(); });
        sim.runUntil(sim.now() + sim::seconds(5.0));
        EXPECT_TRUE(attached);
        UmtsSession* session = nullptr;
        network.activatePdp(imsi, network.profile().apn,
                            [&](util::Result<UmtsSession*> r) {
                                if (r.ok()) session = r.value();
                            });
        sim.runUntil(sim.now() + sim::seconds(3.0));
        return session;
    }

    /// The GGSN's per-session interface (the non-wan one).
    net::Interface* pdpInterface() {
        for (const std::string& name : network.ggsn().interfaceNames())
            if (name != "wan") return network.ggsn().findInterface(name);
        return nullptr;
    }

    sim::Simulator sim;
    net::Internet internet;
    UmtsNetwork network;
};

TEST_F(NetworkTest, AttachTakesRegistrationDelay) {
    bool done = false;
    network.attachUe("imsi-1", [&](util::Result<void> r) { done = r.ok(); });
    sim.runUntil(sim::seconds(1.0));
    EXPECT_FALSE(done);  // registration delay is 2.2 s
    EXPECT_FALSE(network.isAttached("imsi-1"));
    sim.runUntil(sim::seconds(3.0));
    EXPECT_TRUE(done);
    EXPECT_TRUE(network.isAttached("imsi-1"));
}

TEST_F(NetworkTest, AttachFailsWithoutCoverage) {
    network.setCoverage(false);
    std::optional<bool> outcome;
    network.attachUe("imsi-1", [&](util::Result<void> r) { outcome = r.ok(); });
    EXPECT_EQ(outcome, false);
    EXPECT_EQ(network.signalQuality(), 99);  // AT+CSQ "unknown"
}

TEST_F(NetworkTest, SignalQualityNearProfileValue) {
    for (int i = 0; i < 20; ++i) {
        const int csq = network.signalQuality();
        EXPECT_GE(csq, network.profile().signalQualityCsq - 2);
        EXPECT_LE(csq, network.profile().signalQualityCsq + 2);
    }
}

TEST_F(NetworkTest, PdpRequiresAttach) {
    std::optional<util::Error::Code> code;
    network.activatePdp("unknown-imsi", network.profile().apn,
                        [&](util::Result<UmtsSession*> r) {
                            if (!r.ok()) code = r.error().code;
                        });
    EXPECT_EQ(code, util::Error::Code::state);
}

TEST_F(NetworkTest, PdpRejectsWrongApn) {
    bool attached = false;
    network.attachUe("imsi-1", [&](util::Result<void> r) { attached = r.ok(); });
    sim.runUntil(sim::seconds(5.0));
    ASSERT_TRUE(attached);
    std::optional<util::Error::Code> code;
    network.activatePdp("imsi-1", "wrong.apn", [&](util::Result<UmtsSession*> r) {
        if (!r.ok()) code = r.error().code;
    });
    EXPECT_EQ(code, util::Error::Code::invalid_argument);
}

TEST_F(NetworkTest, SessionGetsPoolAddressAndGgsnRoute) {
    UmtsSession* session = bringUpSession();
    ASSERT_NE(session, nullptr);
    EXPECT_TRUE(network.profile().subscriberPool.contains(session->subscriberAddress()));
    EXPECT_NE(session->subscriberAddress(), network.profile().ggsnAddress);
    EXPECT_EQ(network.activeSessions(), 1u);
    EXPECT_EQ(network.sessionAt(0), session);
    // GGSN has a host route toward the subscriber.
    const auto route = network.ggsn().router().table(net::PolicyRouter::kMainTable)
                           .lookup(session->subscriberAddress());
    ASSERT_TRUE(route.has_value());
    EXPECT_NE(route->oifName, "wan");
}

TEST_F(NetworkTest, DistinctSubscribersGetDistinctAddresses) {
    UmtsSession* a = bringUpSession("imsi-a");
    UmtsSession* b = bringUpSession("imsi-b");
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_NE(a->subscriberAddress(), b->subscriberAddress());
    EXPECT_EQ(network.activeSessions(), 2u);
}

TEST_F(NetworkTest, AddressReleasedOnDeactivation) {
    UmtsSession* a = bringUpSession("imsi-a");
    ASSERT_NE(a, nullptr);
    const net::Ipv4Address addr = a->subscriberAddress();
    network.deactivatePdp(a);
    EXPECT_EQ(network.activeSessions(), 0u);
    UmtsSession* b = bringUpSession("imsi-b");
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->subscriberAddress(), addr);  // recycled
}

TEST_F(NetworkTest, TeardownCallbackFires) {
    UmtsSession* session = bringUpSession();
    ASSERT_NE(session, nullptr);
    bool torn = false;
    session->onTeardown = [&] { torn = true; };
    network.detachUe(session->imsi());  // detach drops the session too
    EXPECT_TRUE(torn);
    EXPECT_EQ(network.activeSessions(), 0u);
}

TEST_F(NetworkTest, DetachDuringRegistrationCancels) {
    bool fired = false;
    network.attachUe("imsi-1", [&](util::Result<void>) { fired = true; });
    network.detachUe("imsi-1");
    sim.runUntil(sim::seconds(5.0));
    EXPECT_FALSE(fired);
    EXPECT_FALSE(network.isAttached("imsi-1"));
}

TEST_F(NetworkTest, StatefulFirewallBlocksUnsolicitedInbound) {
    UmtsSession* session = bringUpSession();
    ASSERT_NE(session, nullptr);
    // Unsolicited packet from the Internet toward the subscriber.
    net::Packet intrusion = net::makeUdpPacket(net::Ipv4Address{138, 96, 250, 20}, 22,
                                               session->subscriberAddress(), 22, {});
    network.ggsn().findInterface("wan")->deliver(std::move(intrusion));
    sim.runUntil(sim.now() + sim::seconds(1.0));
    EXPECT_EQ(network.firewallBlockedInbound(), 1u);
    EXPECT_EQ(network.ggsn().forwardedPackets(), 0u);
}

TEST_F(NetworkTest, FirewallAllowsReturnTraffic) {
    UmtsSession* session = bringUpSession();
    ASSERT_NE(session, nullptr);
    // Outbound flow recorded at the GGSN's pdp-side interface...
    net::Packet outbound = net::makeUdpPacket(session->subscriberAddress(), 5000,
                                              net::Ipv4Address{138, 96, 250, 20}, 9001, {});
    // Find the pdp interface (the non-wan one).
    net::Interface* pdp = nullptr;
    for (const std::string& name : network.ggsn().interfaceNames())
        if (name != "wan") pdp = network.ggsn().findInterface(name);
    ASSERT_NE(pdp, nullptr);
    pdp->deliver(std::move(outbound));
    EXPECT_EQ(network.ggsn().forwardedPackets(), 1u);

    // ...so the reverse packet is admitted.
    net::Packet reply = net::makeUdpPacket(net::Ipv4Address{138, 96, 250, 20}, 9001,
                                           session->subscriberAddress(), 5000, {});
    network.ggsn().findInterface("wan")->deliver(std::move(reply));
    EXPECT_EQ(network.ggsn().forwardedPackets(), 2u);
    EXPECT_EQ(network.firewallBlockedInbound(), 0u);
}

OperatorProfile natOperator() {
    OperatorProfile profile = commercialItalianOperator();
    profile.name = "nat-it";
    profile.natSubscribers = true;
    profile.subscriberPool = net::Prefix{net::Ipv4Address{10, 47, 0, 0}, 16};
    profile.ggsnAddress = net::Ipv4Address{93, 57, 0, 1};
    profile.dnsServer = net::Ipv4Address{93, 57, 0, 53};
    return profile;
}

struct NatNetworkTest : ::testing::Test {
    NatNetworkTest()
        : internet(sim, util::RandomStream{5}),
          network(sim, internet, natOperator(), util::RandomStream{6}) {
        // A wired observer host.
        observerStack = std::make_unique<net::NetworkStack>(sim, "observer");
        net::Interface& eth = observerStack->addInterface("eth0");
        eth.setAddress(net::Ipv4Address{138, 96, 250, 20});
        eth.setUp(true);
        internet.attach(eth, net::AccessLink{});
        observerStack->router().table(net::PolicyRouter::kMainTable)
            .addRoute({net::Prefix::any(), "eth0", std::nullopt, 0});
    }

    UmtsSession* bringUpSession() {
        bool attached = false;
        network.attachUe("imsi-nat", [&](util::Result<void> r) { attached = r.ok(); });
        sim.runUntil(sim.now() + sim::seconds(5.0));
        EXPECT_TRUE(attached);
        UmtsSession* session = nullptr;
        network.activatePdp("imsi-nat", network.profile().apn,
                            [&](util::Result<UmtsSession*> r) {
                                if (r.ok()) session = r.value();
                            });
        sim.runUntil(sim.now() + sim::seconds(3.0));
        return session;
    }

    net::Interface* pdpInterface() {
        for (const std::string& name : network.ggsn().interfaceNames())
            if (name != "wan") return network.ggsn().findInterface(name);
        return nullptr;
    }

    sim::Simulator sim;
    net::Internet internet;
    UmtsNetwork network;
    std::unique_ptr<net::NetworkStack> observerStack;
};

TEST_F(NatNetworkTest, OutboundSourceRewrittenToGgsnAddress) {
    UmtsSession* session = bringUpSession();
    ASSERT_NE(session, nullptr);
    EXPECT_TRUE((net::Prefix{net::Ipv4Address{10, 47, 0, 0}, 16})
                    .contains(session->subscriberAddress()));

    auto observer = observerStack->openUdp(0, 9001).value();
    std::optional<net::Datagram> seen;
    observer->onReceive([&](net::Datagram d) { seen = std::move(d); });

    net::Packet outbound = net::makeUdpPacket(session->subscriberAddress(), 5000,
                                              net::Ipv4Address{138, 96, 250, 20}, 9001,
                                              util::Bytes{7});
    pdpInterface()->deliver(std::move(outbound));
    sim.runUntil(sim.now() + sim::seconds(1.0));

    ASSERT_TRUE(seen.has_value());
    // The observer sees the GGSN's public address, not the private one.
    EXPECT_EQ(seen->src, network.profile().ggsnAddress);
    EXPECT_NE(seen->srcPort, 5000);
    EXPECT_GE(seen->srcPort, 20000);
    EXPECT_EQ(network.natBindingCount(), 1u);
}

TEST_F(NatNetworkTest, ReplyTranslatedBackToSubscriber) {
    UmtsSession* session = bringUpSession();
    ASSERT_NE(session, nullptr);

    std::optional<net::Packet> towardSubscriber;
    // Watch what the GGSN pushes down the PDP interface by sniffing
    // its pppd input: easier — watch the session's pppd via the GGSN
    // stack sniffer for packets addressed to the subscriber.
    auto observer = observerStack->openUdp(0, 9001).value();
    observer->onReceive([&](net::Datagram d) {
        // Echo straight back to whatever source we saw (the NAT addr).
        (void)observer->sendTo(d.src, d.srcPort, util::Bytes{9});
    });
    network.ggsn().setSniffer([&](const net::Packet& pkt, const std::string& iif) {
        if (iif == "wan" && pkt.ip.protocol == net::IpProto::udp) towardSubscriber = pkt;
    });

    net::Packet outbound = net::makeUdpPacket(session->subscriberAddress(), 5000,
                                              net::Ipv4Address{138, 96, 250, 20}, 9001,
                                              util::Bytes{7});
    pdpInterface()->deliver(std::move(outbound));
    sim.runUntil(sim.now() + sim::seconds(1.0));

    // The GGSN forwarded the reply after DNAT back to the private
    // address; the sniffer sees the pre-hook packet (public), but the
    // binding must have translated twice (out + in).
    EXPECT_GE(network.natTranslations(), 2u);
    ASSERT_TRUE(towardSubscriber.has_value());
}

TEST_F(NatNetworkTest, DistinctFlowsGetDistinctPublicPorts) {
    UmtsSession* session = bringUpSession();
    ASSERT_NE(session, nullptr);
    auto observer = observerStack->openUdp(0, 9001).value();
    std::vector<std::uint16_t> seenPorts;
    observer->onReceive([&](net::Datagram d) { seenPorts.push_back(d.srcPort); });
    for (std::uint16_t port : {5000, 5001, 5002}) {
        net::Packet outbound = net::makeUdpPacket(session->subscriberAddress(), port,
                                                  net::Ipv4Address{138, 96, 250, 20}, 9001,
                                                  util::Bytes{1});
        pdpInterface()->deliver(std::move(outbound));
    }
    sim.runUntil(sim.now() + sim::seconds(1.0));
    ASSERT_EQ(seenPorts.size(), 3u);
    EXPECT_NE(seenPorts[0], seenPorts[1]);
    EXPECT_NE(seenPorts[1], seenPorts[2]);
    EXPECT_EQ(network.natBindingCount(), 3u);

    // Same flow again: binding is reused.
    net::Packet again = net::makeUdpPacket(session->subscriberAddress(), 5000,
                                           net::Ipv4Address{138, 96, 250, 20}, 9001,
                                           util::Bytes{1});
    pdpInterface()->deliver(std::move(again));
    sim.runUntil(sim.now() + sim::seconds(1.0));
    ASSERT_EQ(seenPorts.size(), 4u);
    EXPECT_EQ(seenPorts[3], seenPorts[0]);
    EXPECT_EQ(network.natBindingCount(), 3u);
}

TEST_F(NatNetworkTest, UnsolicitedInboundToPublicAddressDies) {
    UmtsSession* session = bringUpSession();
    ASSERT_NE(session, nullptr);
    // No binding for this port: the packet is delivered to the GGSN
    // itself (no listener) rather than to any subscriber.
    net::Packet intrusion = net::makeUdpPacket(net::Ipv4Address{138, 96, 250, 20}, 22,
                                               network.profile().ggsnAddress, 23456, {});
    network.ggsn().findInterface("wan")->deliver(std::move(intrusion));
    sim.runUntil(sim.now() + sim::seconds(1.0));
    EXPECT_EQ(network.ggsn().forwardedPackets(), 0u);
}

TEST_F(NetworkTest, MicrocellHasNoFirewall) {
    UmtsNetwork microcell{sim, internet, alcatelLucentMicrocell(), util::RandomStream{9}};
    bool attached = false;
    microcell.attachUe("imsi-m", [&](util::Result<void> r) { attached = r.ok(); });
    sim.runUntil(sim.now() + sim::seconds(3.0));
    ASSERT_TRUE(attached);
    UmtsSession* session = nullptr;
    microcell.activatePdp("imsi-m", microcell.profile().apn,
                          [&](util::Result<UmtsSession*> r) {
                              if (r.ok()) session = r.value();
                          });
    sim.runUntil(sim.now() + sim::seconds(2.0));
    ASSERT_NE(session, nullptr);
    net::Packet intrusion = net::makeUdpPacket(net::Ipv4Address{138, 96, 250, 20}, 22,
                                               session->subscriberAddress(), 22, {});
    microcell.ggsn().findInterface("wan")->deliver(std::move(intrusion));
    EXPECT_EQ(microcell.firewallBlockedInbound(), 0u);
    EXPECT_EQ(microcell.ggsn().forwardedPackets(), 1u);
}

// --- trust-boundary guards: attach storm + flow-state churn ---

std::uint64_t guardCounter(const char* name) {
    return obs::Registry::instance().counter(name).value();
}

TEST(SignalingGuard, BarringCapsAttachBacklog) {
    sim::Simulator sim;
    net::Internet internet{sim, util::RandomStream{5}};
    OperatorProfile profile = commercialItalianOperator();
    profile.signalingGuard.barringLimit = 8;
    profile.signalingGuard.congestionStart = 4;
    UmtsNetwork network{sim, internet, profile, util::RandomStream{6}};

    const std::uint64_t throttledBefore = guardCounter("guard.umts.attach_throttled");
    const std::uint64_t delayedBefore = guardCounter("guard.umts.attach_delayed");
    int admitted = 0;
    int barred = 0;
    for (int i = 0; i < 20; ++i) {
        network.attachUe("storm-" + std::to_string(i), [&](util::Result<void> r) {
            if (r.ok())
                ++admitted;
            else if (r.error().code == util::Error::Code::busy)
                ++barred;
        });
    }
    // The backlog never exceeds the barring limit; the 12 over-limit
    // attaches were answered busy immediately.
    EXPECT_EQ(network.attachBacklog(), 8u);
    EXPECT_EQ(barred, 12);
    EXPECT_EQ(guardCounter("guard.umts.attach_throttled"), throttledBefore + 12);
    // Congestion physics slowed the late admits (backlog >= 4).
    EXPECT_GT(guardCounter("guard.umts.attach_delayed"), delayedBefore);
    // Every admitted registration completes once the delays elapse.
    sim.runUntil(sim.now() + sim::seconds(60.0));
    EXPECT_EQ(admitted, 8);
    EXPECT_EQ(network.attachBacklog(), 0u);
}

TEST(SignalingGuard, DisabledBarringAdmitsUnboundedBacklog) {
    sim::Simulator sim;
    net::Internet internet{sim, util::RandomStream{5}};
    OperatorProfile profile = commercialItalianOperator();
    profile.signalingGuard.enabled = false;
    profile.signalingGuard.barringLimit = 8;
    UmtsNetwork network{sim, internet, profile, util::RandomStream{6}};

    int barred = 0;
    for (int i = 0; i < 20; ++i) {
        network.attachUe("storm-" + std::to_string(i),
                         [&](util::Result<void> r) { barred += r.ok() ? 0 : 1; });
    }
    // No barring: the whole storm is in flight at once (this is the
    // unguarded failure mode the adversary bench measures); the
    // congestion slowdown still applies — it is physics, not policy.
    EXPECT_EQ(network.attachBacklog(), 20u);
    EXPECT_EQ(barred, 0);
}

TEST(NatGuardFlows, PerSubscriberQuotaBoundsChurnState) {
    sim::Simulator sim;
    net::Internet internet{sim, util::RandomStream{5}};
    OperatorProfile profile = commercialItalianOperator();
    profile.natGuard.perSubscriberQuota = 10;
    UmtsNetwork network{sim, internet, profile, util::RandomStream{6}};

    const net::Ipv4Address sprayer{10, 47, 0, 99};
    const net::Ipv4Address dest{138, 96, 250, 20};
    const std::uint64_t deniedBefore = guardCounter("guard.firewall.quota_denied");
    const std::size_t recorded = network.injectFlowChurn(sprayer, dest, 30000, 100);
    EXPECT_EQ(recorded, 10u);
    EXPECT_EQ(network.firewallFlowCount(), 10u);
    EXPECT_EQ(guardCounter("guard.firewall.quota_denied"), deniedBefore + 90);
}

TEST(NatGuardFlows, QuotaKeepsChurnFromEvictingVictimState) {
    sim::Simulator sim;
    net::Internet internet{sim, util::RandomStream{5}};
    OperatorProfile profile = commercialItalianOperator();
    profile.natGuard.maxFirewallFlows = 64;
    profile.natGuard.perSubscriberQuota = 32;
    UmtsNetwork network{sim, internet, profile, util::RandomStream{6}};

    const net::Ipv4Address victim{10, 47, 0, 16};
    const net::Ipv4Address sprayer{10, 47, 0, 99};
    const net::Ipv4Address dest{138, 96, 250, 20};
    ASSERT_EQ(network.injectFlowChurn(victim, dest, 5000, 1), 1u);
    ASSERT_TRUE(network.hasFlowStateFor(victim));
    // A 500-flow spray hits the sprayer's own quota long before the
    // table cap, so the victim's single return-path entry survives.
    (void)network.injectFlowChurn(sprayer, dest, 30000, 500);
    EXPECT_TRUE(network.hasFlowStateFor(victim));
    EXPECT_LE(network.firewallFlowCount(), 33u);
}

TEST(NatGuardFlows, UnlimitedQuotaLetsChurnEvictVictim) {
    sim::Simulator sim;
    net::Internet internet{sim, util::RandomStream{5}};
    OperatorProfile profile = commercialItalianOperator();
    profile.natGuard.maxFirewallFlows = 16;
    profile.natGuard.perSubscriberQuota = 0;  // guard off
    UmtsNetwork network{sim, internet, profile, util::RandomStream{6}};

    const net::Ipv4Address victim{10, 47, 0, 16};
    const net::Ipv4Address sprayer{10, 47, 0, 99};
    const net::Ipv4Address dest{138, 96, 250, 20};
    ASSERT_EQ(network.injectFlowChurn(victim, dest, 5000, 1), 1u);
    const std::uint64_t evictedBefore = guardCounter("guard.firewall.evicted");
    (void)network.injectFlowChurn(sprayer, dest, 30000, 200);
    // With the quota off the spray churns the whole bounded table —
    // the victim's entry is evicted (the attack the quota exists for).
    EXPECT_FALSE(network.hasFlowStateFor(victim));
    EXPECT_LE(network.firewallFlowCount(), 16u);
    EXPECT_GT(guardCounter("guard.firewall.evicted"), evictedBefore);
}


TEST_F(NetworkTest, FirewallAdmitsIcmpErrorsRelatedToTcpFlows) {
    UmtsSession* session = bringUpSession();
    ASSERT_NE(session, nullptr);
    net::Interface* pdp = pdpInterface();
    ASSERT_NE(pdp, nullptr);
    const net::Ipv4Address server{138, 96, 250, 20};
    const net::Ipv4Address router{138, 96, 0, 1};
    net::TcpHeader syn;
    syn.flags = net::tcp_flag::syn;
    const net::Packet opened =
        net::makeTcpSegment(session->subscriberAddress(), 40000, server, 80, syn);
    pdp->deliver(net::Packet{opened});
    ASSERT_EQ(network.firewallFlowCount(), 1u);

    // An ICMP error quoting the recorded TCP flow is RELATED: admitted.
    network.ggsn().findInterface("wan")->deliver(
        net::makeIcmpError(router, net::icmp_type::dest_unreachable, 1, opened));
    EXPECT_EQ(network.firewallBlockedInbound(), 0u);

    // One quoting a TCP flow the subscriber never opened is not.
    const net::Packet unknown =
        net::makeTcpSegment(session->subscriberAddress(), 40001, server, 80, syn);
    network.ggsn().findInterface("wan")->deliver(
        net::makeIcmpError(router, net::icmp_type::dest_unreachable, 1, unknown));
    EXPECT_EQ(network.firewallBlockedInbound(), 1u);
}

OperatorProfile fourFlowFirewallOperator() {
    OperatorProfile profile = commercialItalianOperator();
    profile.natGuard.maxFirewallFlows = 4;
    profile.natGuard.perSubscriberQuota = 0;
    return profile;
}

struct FirewallEvictionTest : NetworkTest {
    FirewallEvictionTest() : NetworkTest(fourFlowFirewallOperator()) {}
};

TEST_F(FirewallEvictionTest, TiesOnLastActivityEvictInFlowTextOrder) {
    UmtsSession* session = bringUpSession();
    ASSERT_NE(session, nullptr);
    net::Interface* pdp = pdpInterface();
    ASSERT_NE(pdp, nullptr);
    ASSERT_EQ(network.firewallFlowCount(), 0u);
    const net::Ipv4Address subscriber = session->subscriberAddress();
    const net::Ipv4Address dest{138, 96, 250, 20};
    const std::uint16_t ports[] = {998, 999, 1000, 1001, 9998, 9999, 10000, 10001};

    // Eight UDP flows at one instant into a four-flow table: every
    // eviction is a tie on last activity. The tie goes to the flow
    // whose text form "17/<src>:<port>><dst>:33001" sorts first, and
    // '>' sorts after the digits, so the tie order of these ports is
    // 10000, 10001, 1000, 1001, 998, 9998, 9999, 999. Adding
    // 9998..10001 to {998, 999, 1000, 1001} evicts 1000, 1001, 998
    // and 10000 in turn.
    const std::uint64_t evictedBefore = guardCounter("guard.firewall.evicted");
    for (const std::uint16_t port : {998, 999, 1000, 1001})
        pdp->deliver(net::makeUdpPacket(subscriber, port, dest, 33001, {}));
    (void)network.injectFlowChurn(subscriber, dest, 9998 - 1024, 4);
    EXPECT_EQ(network.firewallFlowCount(), 4u);
    EXPECT_EQ(guardCounter("guard.firewall.evicted"), evictedBefore + 4);

    std::vector<std::uint16_t> survivors;
    for (const std::uint16_t port : ports) {
        const std::uint64_t blockedBefore = network.firewallBlockedInbound();
        network.ggsn().findInterface("wan")->deliver(
            net::makeUdpPacket(dest, 33001, subscriber, port, {}));
        if (network.firewallBlockedInbound() == blockedBefore) survivors.push_back(port);
    }
    EXPECT_EQ(survivors, (std::vector<std::uint16_t>{999, 9998, 9999, 10001}));
}

}  // namespace
}  // namespace onelab::umts

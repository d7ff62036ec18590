#include <gtest/gtest.h>

#include "ditg/decoder.hpp"
#include "ditg/tcp_flow.hpp"
#include "net/internet.hpp"

namespace onelab::ditg {
namespace {

using sim::seconds;

/// Sender and receiver hosts joined by a clean wired Internet, each
/// with its own TcpHost (as NodeOs::tcp() would provide on a node).
struct TcpSendRecvTest : ::testing::Test {
    TcpSendRecvTest() : internet(sim, util::RandomStream{11}) {
        sender = makeHost("tx", net::Ipv4Address{10, 0, 0, 1});
        receiver = makeHost("rx", net::Ipv4Address{10, 0, 0, 2});
        senderTcp = std::make_unique<net::TcpHost>(sim, *sender, util::RandomStream{21});
        receiverTcp = std::make_unique<net::TcpHost>(sim, *receiver, util::RandomStream{22});
    }

    net::NetworkStack* makeHost(const std::string& name, net::Ipv4Address addr) {
        hosts.push_back(std::make_unique<net::NetworkStack>(sim, name));
        net::NetworkStack& host = *hosts.back();
        net::Interface& eth = host.addInterface("eth0");
        eth.setAddress(addr);
        eth.setUp(true);
        internet.attach(eth, net::AccessLink{});
        host.router().table(net::PolicyRouter::kMainTable)
            .addRoute({net::Prefix::any(), "eth0", std::nullopt, 0});
        return &host;
    }

    sim::Simulator sim;
    net::Internet internet;
    std::vector<std::unique_ptr<net::NetworkStack>> hosts;
    net::NetworkStack* sender = nullptr;
    net::NetworkStack* receiver = nullptr;
    std::unique_ptr<net::TcpHost> senderTcp;
    std::unique_ptr<net::TcpHost> receiverTcp;
};

TEST(ProbeStreamTest, ReassemblesProbesAcrossArbitraryChunking) {
    // Three framed probes concatenated, then fed one byte at a time —
    // the worst chunking TCP can legally produce.
    util::Bytes wire;
    std::vector<util::Bytes> probes;
    for (std::uint32_t i = 0; i < 3; ++i) {
        ProbeHeader header;
        header.flowId = 9;
        header.sequence = i;
        header.txTimeNs = 1000 * i;
        util::Bytes framed = ProbeStream::frame(header.encode(ProbeHeader::kSize + i));
        wire.insert(wire.end(), framed.begin(), framed.end());
    }
    ProbeStream stream;
    std::vector<std::uint32_t> sequences;
    std::vector<std::size_t> sizes;
    for (const std::uint8_t byte : wire)
        stream.feed({&byte, 1}, [&](util::ByteView probe) {
            const auto header = ProbeHeader::decode(probe);
            ASSERT_TRUE(header.has_value());
            sequences.push_back(header->sequence);
            sizes.push_back(probe.size());
        });
    EXPECT_EQ(sequences, (std::vector<std::uint32_t>{0, 1, 2}));
    EXPECT_EQ(sizes, (std::vector<std::size_t>{ProbeHeader::kSize, ProbeHeader::kSize + 1,
                                               ProbeHeader::kSize + 2}));
}

TEST_F(TcpSendRecvTest, CbrFlowDeliversEveryProbe) {
    ItgTcpRecv recv{sim, *receiverTcp, 9002};
    ItgTcpSend send{sim,
                    *senderTcp,
                    cbrFlow(1, 100.0, 200, 2.0),
                    net::Ipv4Address{10, 0, 0, 2},
                    9002,
                    util::RandomStream{1}};
    bool completed = false;
    send.start([&] { completed = true; });
    sim.runUntil(seconds(8.0));

    EXPECT_TRUE(completed);
    EXPECT_TRUE(send.finished());
    EXPECT_EQ(send.probesSent(), 200u);
    EXPECT_EQ(send.sendErrors(), 0u);
    // TCP never loses probes on a clean path: exactly-once, in order.
    EXPECT_EQ(recv.probesReceived(), 200u);
    ASSERT_EQ(recv.log(1).packets.size(), 200u);
    for (std::size_t i = 0; i < 200; ++i)
        EXPECT_EQ(recv.log(1).packets[i].sequence, std::uint32_t(i));
    EXPECT_EQ(recv.acksSent(), 200u);
    EXPECT_EQ(send.log().rtts.size(), 200u);
    EXPECT_EQ(recv.connectionsAccepted(), 1u);
}

TEST_F(TcpSendRecvTest, LogsCarryTheTcpTransportTag) {
    ItgTcpRecv recv{sim, *receiverTcp, 9002};
    ItgTcpSend send{sim,
                    *senderTcp,
                    cbrFlow(3, 50.0, 128, 1.0),
                    net::Ipv4Address{10, 0, 0, 2},
                    9002,
                    util::RandomStream{2}};
    send.start();
    sim.runUntil(seconds(5.0));
    EXPECT_EQ(send.log().transport, FlowTransport::tcp);
    EXPECT_EQ(send.spec().transport, FlowTransport::tcp);
    EXPECT_EQ(recv.log(3).transport, FlowTransport::tcp);
    const QosSummary summary = ItgDec::summarize(send.log(), recv.log(3));
    EXPECT_EQ(summary.lost, 0u);
}

TEST_F(TcpSendRecvTest, ConnectionClosesAfterFlowEnds) {
    ItgTcpRecv recv{sim, *receiverTcp, 9002};
    ItgTcpSend send{sim,
                    *senderTcp,
                    cbrFlow(1, 50.0, 200, 1.0),
                    net::Ipv4Address{10, 0, 0, 2},
                    9002,
                    util::RandomStream{3}};
    send.start();
    sim.runUntil(seconds(10.0));
    ASSERT_NE(send.connection(), nullptr);
    // The sender's close handshake has fully run; after TIME-WAIT both
    // hosts can reap, leaving clean connection tables for a next wave.
    EXPECT_EQ(send.connection()->state(), net::TcpState::closed);
    EXPECT_EQ(senderTcp->reapClosed(), 1u);
    EXPECT_EQ(receiverTcp->reapClosed(), 1u);
    EXPECT_EQ(senderTcp->connectionCount(), 0u);
    EXPECT_EQ(receiverTcp->connectionCount(), 0u);
}

TEST_F(TcpSendRecvTest, ReceiverWithoutAcksSendsNone) {
    ItgTcpRecv recv{sim, *receiverTcp, 9002, /*sendAcks=*/false};
    ItgTcpSend send{sim,
                    *senderTcp,
                    cbrFlow(1, 50.0, 100, 1.0),
                    net::Ipv4Address{10, 0, 0, 2},
                    9002,
                    util::RandomStream{4}};
    send.start();
    sim.runUntil(seconds(5.0));
    EXPECT_EQ(recv.acksSent(), 0u);
    EXPECT_TRUE(send.log().rtts.empty());
    EXPECT_GT(recv.probesReceived(), 0u);
}

TEST_F(TcpSendRecvTest, TwoFlowsOnOnePortKeepSeparateLogs) {
    ItgTcpRecv recv{sim, *receiverTcp, 9002};
    ItgTcpSend flow1{sim,
                     *senderTcp,
                     cbrFlow(1, 50.0, 100, 1.0),
                     net::Ipv4Address{10, 0, 0, 2},
                     9002,
                     util::RandomStream{1}};
    ItgTcpSend flow2{sim,
                     *senderTcp,
                     cbrFlow(2, 25.0, 300, 1.0),
                     net::Ipv4Address{10, 0, 0, 2},
                     9002,
                     util::RandomStream{2}};
    flow1.start();
    flow2.start();
    sim.runUntil(seconds(6.0));
    EXPECT_EQ(recv.connectionsAccepted(), 2u);
    EXPECT_EQ(recv.log(1).packets.size(), flow1.probesSent());
    EXPECT_EQ(recv.log(2).packets.size(), flow2.probesSent());
    for (const RxRecord& rx : recv.log(2).packets) EXPECT_EQ(rx.payloadBytes, 300u);
}

TEST_F(TcpSendRecvTest, ConnectFailureCountsSendErrorsNotProbes) {
    // Nobody listens on 9002: the SYN draws an RST and the flow never
    // establishes. The sender reports errors rather than silently
    // logging probes that never hit the wire.
    ItgTcpSend send{sim,
                    *senderTcp,
                    cbrFlow(1, 50.0, 100, 1.0),
                    net::Ipv4Address{10, 0, 0, 2},
                    9002,
                    util::RandomStream{5}};
    bool completed = false;
    send.start([&] { completed = true; });
    sim.runUntil(seconds(10.0));
    EXPECT_EQ(send.probesSent(), 0u);
    EXPECT_TRUE(send.log().packets.empty());
}

TEST_F(TcpSendRecvTest, EndToEndDecodeMatchesExpectations) {
    ItgTcpRecv recv{sim, *receiverTcp, 9002};
    // 400 kbps CBR over a clean 100 Mbps path: all delivered, tiny OWD.
    ItgTcpSend send{sim,
                    *senderTcp,
                    cbrFlow(1, 100.0, 500, 4.0),
                    net::Ipv4Address{10, 0, 0, 2},
                    9002,
                    util::RandomStream{1}};
    send.start();
    sim.runUntil(seconds(10.0));
    const QosSummary summary = ItgDec::summarize(send.log(), recv.log(1));
    EXPECT_EQ(summary.lost, 0u);
    EXPECT_NEAR(summary.meanBitrateKbps, 400.0, 40.0);
    EXPECT_LT(summary.meanJitterSeconds, 0.001);
}

// --- lifetime: flows and a dead receiver/sender must not dangle ---

TEST_F(TcpSendRecvTest, ReceiverDestroyedMidFlowAbortsItsConnections) {
    // A receiver torn down while a peer is still streaming (the chaos
    // soak does this when a wave ends under injected faults) must
    // leave nothing pointing back into freed state: late segments
    // used to land in the destroyed receiver's ProbeStream.
    auto recv = std::make_unique<ItgTcpRecv>(sim, *receiverTcp, 9002);
    ItgTcpSend send{sim,
                    *senderTcp,
                    cbrFlow(1, 100.0, 200, 5.0),
                    net::Ipv4Address{10, 0, 0, 2},
                    9002,
                    util::RandomStream{5}};
    send.start();
    sim.runUntil(seconds(1.0));  // established, probes flowing
    ASSERT_EQ(recv->connectionsAccepted(), 1u);
    recv.reset();
    // The sender keeps emitting into the teardown; the abort's RST
    // must finish its connection instead of feeding freed memory.
    sim.runUntil(seconds(10.0));
    ASSERT_NE(send.connection(), nullptr);
    EXPECT_EQ(send.connection()->state(), net::TcpState::closed);
    EXPECT_EQ(receiverTcp->reapClosed(), 1u);
    EXPECT_EQ(receiverTcp->connectionCount(), 0u);
}

TEST_F(TcpSendRecvTest, ReceiverTeardownAbortsInRemoteAddressAndPortOrder) {
    // The receiver allocates and accepts the 10.0.0.3 connection
    // first, then two from 10.0.0.1. Its RSTs must still leave in
    // (remote address, remote port) order: the order they take on the
    // wire shifts every later timestamp, so it may not follow
    // allocation (heap address) or accept order.
    net::NetworkStack* late = makeHost("tx2", net::Ipv4Address{10, 0, 0, 3});
    net::TcpHost lateTcp{sim, *late, util::RandomStream{23}};
    auto recv = std::make_unique<ItgTcpRecv>(sim, *receiverTcp, 9002);

    std::vector<std::string> resetOrder;
    const auto open = [&](net::TcpHost& host, const std::string& tag) {
        net::TcpConnection* conn = host.connect(net::Ipv4Address{10, 0, 0, 2}, 9002);
        conn->onClosed = [&resetOrder, tag] { resetOrder.push_back(tag); };
        sim.runUntil(sim.now() + seconds(0.5));  // established and accepted
        EXPECT_TRUE(conn->isEstablished()) << tag;
    };
    open(lateTcp, "10.0.0.3:42000");
    open(*senderTcp, "10.0.0.1:42000");
    open(*senderTcp, "10.0.0.1:42001");
    ASSERT_EQ(recv->connectionsAccepted(), 3u);

    recv.reset();
    sim.runUntil(sim.now() + seconds(1.0));
    const std::vector<std::string> expected{"10.0.0.1:42000", "10.0.0.1:42001",
                                            "10.0.0.3:42000"};
    EXPECT_EQ(resetOrder, expected);
}

TEST_F(TcpSendRecvTest, SenderDestroyedMidFlowLeavesNoLiveTimers) {
    ItgTcpRecv recv{sim, *receiverTcp, 9002};
    auto send = std::make_unique<ItgTcpSend>(sim, *senderTcp,
                                             cbrFlow(2, 100.0, 200, 5.0),
                                             net::Ipv4Address{10, 0, 0, 2}, 9002,
                                             util::RandomStream{6});
    send->start();
    sim.runUntil(seconds(1.0));  // mid-flow: probe timer pending
    send.reset();
    // The pending emit timer and the connection's callbacks all fire
    // against the liveness token, not the freed sender.
    sim.runUntil(seconds(10.0));
    SUCCEED();
}

TEST_F(TcpSendRecvTest, SenderDestroyedBeforeConnectEstablishes) {
    ItgTcpRecv recv{sim, *receiverTcp, 9002};
    auto send = std::make_unique<ItgTcpSend>(sim, *senderTcp,
                                             cbrFlow(3, 100.0, 200, 5.0),
                                             net::Ipv4Address{10, 0, 0, 2}, 9002,
                                             util::RandomStream{7});
    send->start();
    send.reset();  // SYN in flight; onConnected fires after death
    sim.runUntil(seconds(10.0));
    SUCCEED();
}

}  // namespace
}  // namespace onelab::ditg

#include "ppp/auth.hpp"

#include <gtest/gtest.h>

namespace onelab::ppp {
namespace {

/// Runs an Authenticatee against an Authenticator over a simulated
/// lossless wire.
struct AuthHarness : ::testing::Test {
    void wire(Authenticatee& peer, Authenticator& server) {
        peerSend = [this, &server](Protocol proto, const ControlPacket& pkt) {
            sim.schedule(sim::millis(5), [&server, proto, pkt] { server.receive(proto, pkt); });
        };
        serverSend = [this, &peer](Protocol proto, const ControlPacket& pkt) {
            sim.schedule(sim::millis(5), [&peer, proto, pkt] { peer.receive(proto, pkt); });
        };
    }

    std::function<std::optional<std::string>(const std::string&)> lookup() {
        return [](const std::string& user) -> std::optional<std::string> {
            if (user == "onelab") return "secret";
            return std::nullopt;
        };
    }

    sim::Simulator sim;
    std::function<void(Protocol, const ControlPacket&)> peerSend;
    std::function<void(Protocol, const ControlPacket&)> serverSend;
};

TEST_F(AuthHarness, PapSuccess) {
    Authenticatee peer{sim, AuthProtocol::pap, {"onelab", "secret"},
                       [this](Protocol p, const ControlPacket& c) { peerSend(p, c); }};
    Authenticator server{sim, AuthProtocol::pap, "ggsn", lookup(),
                         [this](Protocol p, const ControlPacket& c) { serverSend(p, c); },
                         util::RandomStream{1}};
    wire(peer, server);
    std::optional<bool> peerResult;
    std::optional<bool> serverResult;
    std::string authedUser;
    peer.onResult = [&](bool ok, const std::string&) { peerResult = ok; };
    server.onResult = [&](bool ok, const std::string& name) {
        serverResult = ok;
        authedUser = name;
    };
    server.start();
    peer.start();
    sim.runUntil(sim::seconds(2.0));
    EXPECT_EQ(peerResult, true);
    EXPECT_EQ(serverResult, true);
    EXPECT_EQ(authedUser, "onelab");
}

TEST_F(AuthHarness, PapWrongPasswordRejected) {
    Authenticatee peer{sim, AuthProtocol::pap, {"onelab", "wrong"},
                       [this](Protocol p, const ControlPacket& c) { peerSend(p, c); }};
    Authenticator server{sim, AuthProtocol::pap, "ggsn", lookup(),
                         [this](Protocol p, const ControlPacket& c) { serverSend(p, c); },
                         util::RandomStream{1}};
    wire(peer, server);
    std::optional<bool> peerResult;
    std::optional<bool> serverResult;
    peer.onResult = [&](bool ok, const std::string&) { peerResult = ok; };
    server.onResult = [&](bool ok, const std::string&) { serverResult = ok; };
    server.start();
    peer.start();
    sim.runUntil(sim::seconds(2.0));
    EXPECT_EQ(peerResult, false);
    EXPECT_EQ(serverResult, false);
}

TEST_F(AuthHarness, PapUnknownUserRejected) {
    Authenticatee peer{sim, AuthProtocol::pap, {"nobody", "secret"},
                       [this](Protocol p, const ControlPacket& c) { peerSend(p, c); }};
    Authenticator server{sim, AuthProtocol::pap, "ggsn", lookup(),
                         [this](Protocol p, const ControlPacket& c) { serverSend(p, c); },
                         util::RandomStream{1}};
    wire(peer, server);
    std::optional<bool> serverResult;
    server.onResult = [&](bool ok, const std::string&) { serverResult = ok; };
    server.start();
    peer.start();
    sim.runUntil(sim::seconds(2.0));
    EXPECT_EQ(serverResult, false);
}

TEST_F(AuthHarness, ChapSuccess) {
    Authenticatee peer{sim, AuthProtocol::chap_md5, {"onelab", "secret"},
                       [this](Protocol p, const ControlPacket& c) { peerSend(p, c); }};
    Authenticator server{sim, AuthProtocol::chap_md5, "ggsn", lookup(),
                         [this](Protocol p, const ControlPacket& c) { serverSend(p, c); },
                         util::RandomStream{2}};
    wire(peer, server);
    std::optional<bool> peerResult;
    std::optional<bool> serverResult;
    peer.onResult = [&](bool ok, const std::string&) { peerResult = ok; };
    server.onResult = [&](bool ok, const std::string&) { serverResult = ok; };
    server.start();
    peer.start();
    sim.runUntil(sim::seconds(2.0));
    EXPECT_EQ(peerResult, true);
    EXPECT_EQ(serverResult, true);
}

TEST_F(AuthHarness, ChapWrongSecretFails) {
    Authenticatee peer{sim, AuthProtocol::chap_md5, {"onelab", "guess"},
                       [this](Protocol p, const ControlPacket& c) { peerSend(p, c); }};
    Authenticator server{sim, AuthProtocol::chap_md5, "ggsn", lookup(),
                         [this](Protocol p, const ControlPacket& c) { serverSend(p, c); },
                         util::RandomStream{2}};
    wire(peer, server);
    std::optional<bool> peerResult;
    std::optional<bool> serverResult;
    peer.onResult = [&](bool ok, const std::string&) { peerResult = ok; };
    server.onResult = [&](bool ok, const std::string&) { serverResult = ok; };
    server.start();
    peer.start();
    sim.runUntil(sim::seconds(2.0));
    EXPECT_EQ(peerResult, false);
    EXPECT_EQ(serverResult, false);
}

TEST_F(AuthHarness, AcceptAllIgnoresCredentials) {
    Authenticatee peer{sim, AuthProtocol::chap_md5, {"whoever", "whatever"},
                       [this](Protocol p, const ControlPacket& c) { peerSend(p, c); }};
    Authenticator server{sim, AuthProtocol::chap_md5, "ggsn", lookup(),
                         [this](Protocol p, const ControlPacket& c) { serverSend(p, c); },
                         util::RandomStream{3}};
    server.setAcceptAll(true);
    wire(peer, server);
    std::optional<bool> serverResult;
    server.onResult = [&](bool ok, const std::string&) { serverResult = ok; };
    server.start();
    peer.start();
    sim.runUntil(sim::seconds(2.0));
    EXPECT_EQ(serverResult, true);
}

TEST_F(AuthHarness, NoneCompletesImmediately) {
    Authenticatee peer{sim, AuthProtocol::none, {},
                       [](Protocol, const ControlPacket&) { FAIL() << "nothing should be sent"; }};
    std::optional<bool> result;
    peer.onResult = [&](bool ok, const std::string&) { result = ok; };
    peer.start();
    EXPECT_EQ(result, true);
}

TEST_F(AuthHarness, PapTimesOutWithoutServer) {
    int sent = 0;
    Authenticatee peer{sim, AuthProtocol::pap, {"onelab", "secret"},
                       [&](Protocol, const ControlPacket&) { ++sent; }};
    std::optional<bool> result;
    peer.onResult = [&](bool ok, const std::string&) { result = ok; };
    peer.start();
    sim.runUntil(sim::seconds(10.0));
    EXPECT_EQ(result, false);
    EXPECT_GT(sent, 1);  // retransmissions happened
}

TEST_F(AuthHarness, ChapTimesOutWhenSuccessIsLost) {
    Authenticatee peer{sim, AuthProtocol::chap_md5, {"onelab", "secret"},
                       [this](Protocol p, const ControlPacket& c) { peerSend(p, c); }};
    // The line eats the verdict: the server is satisfied, the peer
    // never hears so.
    Authenticator server{sim, AuthProtocol::chap_md5, "ggsn", lookup(),
                         [this](Protocol p, const ControlPacket& c) {
                             if (std::uint8_t(c.code) != 3) serverSend(p, c);  // 3 = Success
                         },
                         util::RandomStream{5}};
    wire(peer, server);
    std::optional<bool> peerResult;
    std::string peerMessage;
    std::optional<bool> serverResult;
    peer.onResult = [&](bool ok, const std::string& message) {
        peerResult = ok;
        peerMessage = message;
    };
    server.onResult = [&](bool ok, const std::string&) { serverResult = ok; };
    server.start();
    peer.start();
    sim.runUntil(sim::seconds(10.0));
    EXPECT_EQ(serverResult, true);
    EXPECT_EQ(peerResult, false);
    EXPECT_EQ(peerMessage, "CHAP timeout");
}

TEST_F(AuthHarness, ChapChallengeRetransmitted) {
    int challenges = 0;
    Authenticator server{sim, AuthProtocol::chap_md5, "ggsn", lookup(),
                         [&](Protocol, const ControlPacket& pkt) {
                             if (std::uint8_t(pkt.code) == 1) ++challenges;
                         },
                         util::RandomStream{4}};
    std::optional<bool> result;
    server.onResult = [&](bool ok, const std::string&) { result = ok; };
    server.start();
    sim.runUntil(sim::seconds(10.0));
    EXPECT_GT(challenges, 1);
    EXPECT_EQ(result, false);  // nobody answered
}

}  // namespace
}  // namespace onelab::ppp

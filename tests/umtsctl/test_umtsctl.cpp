#include <gtest/gtest.h>

#include "obs/registry.hpp"
#include "scenario/testbed.hpp"
#include "umtsctl/frontend.hpp"

namespace onelab::umtsctl {
namespace {

using scenario::Testbed;
using scenario::TestbedConfig;

struct UmtsctlTest : ::testing::Test {
    UmtsctlTest() : tb(TestbedConfig{}) {}
    explicit UmtsctlTest(TestbedConfig config) : tb(std::move(config)) {}

    /// Synchronously invoke the umts vsys script from a slice.
    pl::VsysResult invoke(pl::Slice& slice, const std::vector<std::string>& args,
                          double waitSeconds = 30.0) {
        std::optional<util::Result<pl::VsysResult>> outcome;
        tb.napoli().vsys().invoke(slice, "umts", args,
                                  [&](util::Result<pl::VsysResult> r) { outcome = std::move(r); });
        const sim::SimTime deadline = tb.sim().now() + sim::seconds(waitSeconds);
        while (!outcome && tb.sim().now() < deadline)
            tb.sim().runUntil(tb.sim().now() + sim::millis(50));
        if (!outcome) return pl::VsysResult{-1, {"timeout"}};
        if (!outcome->ok()) return pl::VsysResult{-2, {outcome->error().message}};
        return outcome->value();
    }

    static bool hasLine(const pl::VsysResult& result, const std::string& needle) {
        for (const std::string& line : result.output)
            if (line.find(needle) != std::string::npos) return true;
        return false;
    }

    Testbed tb;
};

TEST_F(UmtsctlTest, StartConnectsAndReportsAddress) {
    const auto started = tb.startUmts();
    ASSERT_TRUE(started.ok()) << started.error().message;
    EXPECT_TRUE(started.value().connected);
    EXPECT_TRUE(tb.operatorNetwork().profile().subscriberPool.contains(
        started.value().address));
    EXPECT_EQ(started.value().operatorName, "IT Mobile");
    EXPECT_GT(started.value().signalQuality, 0);
    // ppp0 exists on the node, with the negotiated address.
    net::Interface* ppp = tb.napoli().stack().findInterface("ppp0");
    ASSERT_NE(ppp, nullptr);
    EXPECT_TRUE(ppp->isUp());
    EXPECT_EQ(ppp->address(), started.value().address);
}

TEST_F(UmtsctlTest, StartFailureReleasesLock) {
    // No coverage: registration times out, the lock must come free.
    tb.operatorNetwork().setCoverage(false);
    const auto result = tb.startUmts(sim::seconds(60.0));
    ASSERT_FALSE(result.ok());
    EXPECT_FALSE(tb.backend().state().locked);
    EXPECT_EQ(tb.napoli().stack().findInterface("ppp0"), nullptr);
    // Coverage returns: the same slice can start successfully.
    tb.operatorNetwork().setCoverage(true);
    EXPECT_TRUE(tb.startUmts().ok());
}

TEST_F(UmtsctlTest, ConcurrentStartRaceSecondSliceLosesImmediately) {
    // The second slice's start must fail fast with EBUSY while the
    // first is still registering/dialing (check-and-lock semantics).
    tb.napoli().vsys().allow("umts", tb.otherSlice().name);
    std::optional<pl::VsysResult> first;
    std::optional<pl::VsysResult> second;
    tb.napoli().vsys().invoke(tb.umtsSlice(), "umts", {"start"},
                              [&](util::Result<pl::VsysResult> r) { first = r.value(); });
    tb.sim().runUntil(tb.sim().now() + sim::millis(500));  // mid-registration
    tb.napoli().vsys().invoke(tb.otherSlice(), "umts", {"start"},
                              [&](util::Result<pl::VsysResult> r) { second = r.value(); });
    // The loser is answered immediately, the winner keeps dialing.
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->exitCode, exit_code::busy);
    EXPECT_FALSE(first.has_value());
    tb.sim().runUntil(tb.sim().now() + sim::seconds(30.0));
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->exitCode, exit_code::ok);
}

TEST_F(UmtsctlTest, WrongPinConfigurationFailsCleanly) {
    // The site operator misconfigured the backend's PIN: comgt's
    // AT+CPIN attempt is rejected, start fails, nothing stays locked.
    TestbedConfig config;
    config.simPin = "1234";
    config.backendPinOverride = "9999";
    Testbed broken{config};
    const auto result = broken.startUmts(sim::seconds(30.0));
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.error().message.find("registration"), std::string::npos);
    EXPECT_FALSE(broken.backend().state().locked);
    EXPECT_EQ(broken.napoli().stack().findInterface("ppp0"), nullptr);
    EXPECT_EQ(broken.operatorNetwork().activeSessions(), 0u);
}

TEST_F(UmtsctlTest, RejectedCredentialsFailTheDialCleanly) {
    // The APN knows no such subscriber: CHAP fails, both pppds
    // terminate LCP, and the dial fails from inside the dialer's own
    // Terminate-Ack dispatch — the backend must not free that pppd
    // while its FSM is still on the stack.
    TestbedConfig config;
    config.operatorProfile.acceptAnyCredentials = false;
    config.operatorProfile.subscribers.clear();
    Testbed broken{config};
    const auto result = broken.startUmts(sim::seconds(60.0));
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.error().message.find("dial"), std::string::npos);
    EXPECT_FALSE(broken.backend().state().locked);
    EXPECT_EQ(broken.napoli().stack().findInterface("ppp0"), nullptr);
    EXPECT_EQ(broken.operatorNetwork().activeSessions(), 0u);
}

TEST_F(UmtsctlTest, StartLoadsPppAndDriverModules) {
    pl::KernelModuleRegistry* modules =
        tb.napoli().modules(tb.napoli().rootContext()).value();
    EXPECT_FALSE(modules->isLoaded("ppp_async"));
    ASSERT_TRUE(tb.startUmts().ok());
    EXPECT_TRUE(modules->isLoaded("ppp_generic"));
    EXPECT_TRUE(modules->isLoaded("ppp_async"));
    EXPECT_TRUE(modules->isLoaded("ppp_deflate"));
    EXPECT_TRUE(modules->isLoaded("pl2303"));  // huawei card default
    EXPECT_TRUE(modules->isLoaded("usbserial"));
}

TEST_F(UmtsctlTest, StartFailsWhenDriverCannotLoad) {
    // The vanilla nozomi refuses the PlanetLab kernel (§2.3); without
    // the OneLab patch the whole start aborts.
    TestbedConfig config;
    config.extraRequiredModules = {"nozomi"};
    Testbed broken{config};
    const auto result = broken.startUmts(sim::seconds(10.0));
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.error().message.find("modprobe"), std::string::npos);
    EXPECT_FALSE(broken.backend().state().locked);
}

TEST_F(UmtsctlTest, StartInstallsExactRuleSet) {
    ASSERT_TRUE(tb.startUmts().ok());
    net::NetworkStack& stack = tb.napoli().stack();
    // One MARK rule in mangle/OUTPUT keyed on the slice xid.
    const auto mangle = stack.netfilter().listChain(net::ChainHook::mangle_output);
    ASSERT_EQ(mangle.size(), 1u);
    EXPECT_EQ(mangle[0].second.match.sliceXid, tb.umtsSlice().xid);
    EXPECT_EQ(mangle[0].second.target.kind, net::FilterTarget::Kind::mark);
    // One negated-slice DROP rule on ppp0 in filter/OUTPUT.
    const auto filter = stack.netfilter().listChain(net::ChainHook::filter_output);
    ASSERT_EQ(filter.size(), 1u);
    EXPECT_TRUE(filter[0].second.match.negateSlice);
    EXPECT_EQ(filter[0].second.match.outInterface, "ppp0");
    // Table 100 holds exactly the default-via-ppp0 route.
    const net::RoutingTable* table = stack.router().findTable(100);
    ASSERT_NE(table, nullptr);
    ASSERT_EQ(table->routes().size(), 1u);
    EXPECT_EQ(table->routes()[0].oifName, "ppp0");
    EXPECT_EQ(table->routes()[0].dst, net::Prefix::any());
    // The from-<ppp0-addr> rule plus the default main rule.
    EXPECT_EQ(stack.router().rules().size(), 2u);
}

TEST_F(UmtsctlTest, SecondSliceStartIsLockedOut) {
    ASSERT_TRUE(tb.startUmts().ok());
    // Allow the other slice in the ACL, then try to start: EBUSY.
    tb.napoli().vsys().allow("umts", tb.otherSlice().name);
    const auto result = invoke(tb.otherSlice(), {"start"});
    EXPECT_EQ(result.exitCode, exit_code::busy);
    EXPECT_TRUE(hasLine(result, "locked by slice"));
}

TEST_F(UmtsctlTest, StartWhileAlreadyStartedIsIdempotent) {
    ASSERT_TRUE(tb.startUmts().ok());
    const auto again = invoke(tb.umtsSlice(), {"start"});
    EXPECT_EQ(again.exitCode, exit_code::ok);
    EXPECT_TRUE(hasLine(again, "already-connected"));
}

TEST_F(UmtsctlTest, SliceNotInAclIsRefusedByVsys) {
    const auto result = invoke(tb.otherSlice(), {"start"});
    EXPECT_EQ(result.exitCode, -2);  // vsys-level permission denial
}

TEST_F(UmtsctlTest, StatusReportsState) {
    auto status = invoke(tb.umtsSlice(), {"status"});
    EXPECT_EQ(status.exitCode, exit_code::ok);
    EXPECT_TRUE(hasLine(status, "locked=0"));
    ASSERT_TRUE(tb.startUmts().ok());
    status = invoke(tb.umtsSlice(), {"status"});
    EXPECT_TRUE(hasLine(status, "locked=1"));
    EXPECT_TRUE(hasLine(status, "owner=" + tb.umtsSlice().name));
    EXPECT_TRUE(hasLine(status, "connected=1"));
    EXPECT_TRUE(hasLine(status, "operator=IT Mobile"));
}

TEST_F(UmtsctlTest, AddAndDelDestination) {
    ASSERT_TRUE(tb.startUmts().ok());
    const auto added = invoke(tb.umtsSlice(), {"add", "destination", "138.96.250.20/32"});
    EXPECT_EQ(added.exitCode, exit_code::ok);
    EXPECT_EQ(tb.napoli().stack().router().rules().size(), 3u);

    // Duplicates rejected.
    const auto dup = invoke(tb.umtsSlice(), {"add", "destination", "138.96.250.20/32"});
    EXPECT_EQ(dup.exitCode, exit_code::inval);

    const auto status = invoke(tb.umtsSlice(), {"status"});
    EXPECT_TRUE(hasLine(status, "destination=138.96.250.20/32"));

    const auto deleted = invoke(tb.umtsSlice(), {"del", "destination", "138.96.250.20/32"});
    EXPECT_EQ(deleted.exitCode, exit_code::ok);
    EXPECT_EQ(tb.napoli().stack().router().rules().size(), 2u);

    const auto missing = invoke(tb.umtsSlice(), {"del", "destination", "138.96.250.20/32"});
    EXPECT_EQ(missing.exitCode, exit_code::noent);
}

TEST_F(UmtsctlTest, DestinationRequiresOwnership) {
    ASSERT_TRUE(tb.startUmts().ok());
    tb.napoli().vsys().allow("umts", tb.otherSlice().name);
    const auto result = invoke(tb.otherSlice(), {"add", "destination", "1.2.3.4/32"});
    EXPECT_EQ(result.exitCode, exit_code::perm);
}

TEST_F(UmtsctlTest, BadDestinationRejected) {
    ASSERT_TRUE(tb.startUmts().ok());
    EXPECT_EQ(invoke(tb.umtsSlice(), {"add", "destination", "not-an-address"}).exitCode,
              exit_code::inval);
    EXPECT_EQ(invoke(tb.umtsSlice(), {"add", "destination", "10.0.0.0/99"}).exitCode,
              exit_code::inval);
}

TEST_F(UmtsctlTest, StatsVerbDumpsLiveRegistry) {
    ASSERT_TRUE(tb.startUmts().ok());
    const auto stats = invoke(tb.umtsSlice(), {"stats"});
    EXPECT_EQ(stats.exitCode, exit_code::ok);
    // Counters registered at construction across the layers show up,
    // tagged with their kind; the AT dialogue has run by now.
    EXPECT_TRUE(hasLine(stats, "modem.at.commands=counter:"));
    EXPECT_TRUE(hasLine(stats, "umts.bearer.222880000000001.upgrades=counter:"));
    bool atNonZero = false;
    for (const std::string& line : stats.output)
        if (line.find("modem.at.commands=counter:0") == std::string::npos &&
            line.find("modem.at.commands=counter:") != std::string::npos)
            atNonZero = true;
    EXPECT_TRUE(atNonZero);
}

TEST_F(UmtsctlTest, FrontendStatsRendersTable) {
    ASSERT_TRUE(tb.startUmts().ok());
    UmtsFrontend frontend{tb.napoli(), tb.umtsSlice()};
    std::optional<util::Result<std::string>> rendered;
    frontend.stats([&](util::Result<std::string> r) { rendered = std::move(r); });
    tb.sim().runUntil(tb.sim().now() + sim::seconds(1.0));
    ASSERT_TRUE(rendered.has_value());
    ASSERT_TRUE(rendered->ok()) << rendered->error().message;
    const std::string& table = rendered->value();
    EXPECT_NE(table.find("metric"), std::string::npos);
    EXPECT_NE(table.find("type"), std::string::npos);
    EXPECT_NE(table.find("modem.at.commands"), std::string::npos);
    EXPECT_NE(table.find("counter"), std::string::npos);
}

// --- stats ACL: per-session scoping at the FIFO trust boundary ---

TEST_F(UmtsctlTest, ScopedStatsHidesOtherSessionsBearerFamilies) {
    ASSERT_TRUE(tb.startUmts().ok());
    // A family belonging to some other session's IMSI (as would exist
    // after this node served a different subscriber, or on a shared
    // registry): the scoped dump must not leak it.
    obs::Registry::instance().counter("umts.bearer.999880000000099.upgrades").inc();
    const auto stats = invoke(tb.umtsSlice(), {"stats"});
    EXPECT_EQ(stats.exitCode, exit_code::ok);
    EXPECT_TRUE(hasLine(stats, "umts.bearer.222880000000001.upgrades=counter:"));
    EXPECT_FALSE(hasLine(stats, "umts.bearer.999880000000099"));
    // Node-wide families (and the non-digit legacy aggregates) are not
    // per-session and stay visible.
    EXPECT_TRUE(hasLine(stats, "modem.at.commands=counter:"));
}

TEST_F(UmtsctlTest, HostileStatsAllIsScopedBackAndCounted) {
    ASSERT_TRUE(tb.startUmts().ok());
    obs::Registry::instance().counter("umts.bearer.999880000000099.upgrades").inc();
    tb.napoli().vsys().allow("umts", tb.otherSlice().name);
    const std::uint64_t deniedBefore =
        obs::Registry::instance().counter("guard.umtsctl.stats_denied").value();
    // The frontend never sends "all" for a non-owner, but a hostile
    // slice speaking the raw FIFO protocol can. The backend scopes the
    // dump back to the node's own session and records the attempt.
    const auto stats = invoke(tb.otherSlice(), {"stats", "all"});
    EXPECT_EQ(stats.exitCode, exit_code::ok);
    EXPECT_TRUE(hasLine(stats, "umts.bearer.222880000000001.upgrades=counter:"));
    EXPECT_FALSE(hasLine(stats, "umts.bearer.999880000000099"));
    EXPECT_EQ(obs::Registry::instance().counter("guard.umtsctl.stats_denied").value(),
              deniedBefore + 1);
}

TEST_F(UmtsctlTest, OwningSliceStatsAllStillDumpsEverything) {
    ASSERT_TRUE(tb.startUmts().ok());
    obs::Registry::instance().counter("umts.bearer.999880000000099.upgrades").inc();
    const std::uint64_t deniedBefore =
        obs::Registry::instance().counter("guard.umtsctl.stats_denied").value();
    const auto stats = invoke(tb.umtsSlice(), {"stats", "all"});
    EXPECT_EQ(stats.exitCode, exit_code::ok);
    EXPECT_TRUE(hasLine(stats, "umts.bearer.999880000000099.upgrades=counter:"));
    EXPECT_EQ(obs::Registry::instance().counter("guard.umtsctl.stats_denied").value(),
              deniedBefore);
}

TEST_F(UmtsctlTest, UnknownVerbRejected) {
    EXPECT_EQ(invoke(tb.umtsSlice(), {"frobnicate"}).exitCode, exit_code::inval);
}

TEST_F(UmtsctlTest, StopRestoresStateExactly) {
    ASSERT_TRUE(tb.startUmts().ok());
    ASSERT_TRUE(tb.addUmtsDestination("138.96.250.20/32").ok());
    ASSERT_TRUE(tb.stopUmts().ok());

    net::NetworkStack& stack = tb.napoli().stack();
    // Invariant 4 (DESIGN.md): no rule leaks after stop.
    EXPECT_EQ(stack.netfilter().ruleCount(), 0u);
    EXPECT_EQ(stack.router().rules().size(), 1u);  // only the main rule
    EXPECT_EQ(stack.router().findTable(100), nullptr);
    EXPECT_EQ(stack.findInterface("ppp0"), nullptr);
    EXPECT_EQ(tb.operatorNetwork().activeSessions(), 0u);
    // And the modem is back in command mode.
    EXPECT_FALSE(tb.card().inDataMode());
}

TEST_F(UmtsctlTest, StopByNonOwnerDenied) {
    ASSERT_TRUE(tb.startUmts().ok());
    tb.napoli().vsys().allow("umts", tb.otherSlice().name);
    const auto result = invoke(tb.otherSlice(), {"stop"});
    EXPECT_EQ(result.exitCode, exit_code::perm);
    EXPECT_TRUE(tb.backend().state().connected);
}

TEST_F(UmtsctlTest, StopWhenNotStartedIsNoop) {
    const auto result = invoke(tb.umtsSlice(), {"stop"});
    EXPECT_EQ(result.exitCode, exit_code::ok);
    EXPECT_TRUE(hasLine(result, "not-started"));
}

TEST_F(UmtsctlTest, RestartAfterStopWorks) {
    ASSERT_TRUE(tb.startUmts().ok());
    ASSERT_TRUE(tb.stopUmts().ok());
    const auto second = tb.startUmts();
    ASSERT_TRUE(second.ok()) << second.error().message;
    EXPECT_TRUE(second.value().connected);
}

// --- Isolation invariants (DESIGN.md §4), enforced end to end ---

TEST_F(UmtsctlTest, OnlyOwnerSliceTrafficUsesUmts) {
    ASSERT_TRUE(tb.startUmts().ok());
    ASSERT_TRUE(tb.addUmtsDestination(tb.inriaEthAddress().str() + "/32").ok());
    net::Interface* ppp = tb.napoli().stack().findInterface("ppp0");
    ASSERT_NE(ppp, nullptr);

    // Owner-slice packet to the registered destination: via ppp0.
    auto ownerSocket = tb.napoli().openSliceUdp(tb.umtsSlice()).value();
    ASSERT_TRUE(ownerSocket->sendTo(tb.inriaEthAddress(), 9001, util::Bytes{1}).ok());
    EXPECT_EQ(ppp->counters().txPackets, 1u);

    // Invariant 2: other-slice packet to the same destination: eth0.
    net::Interface* eth = tb.napoli().stack().findInterface("eth0");
    const std::uint64_t ethBefore = eth->counters().txPackets;
    auto otherSocket = tb.napoli().openSliceUdp(tb.otherSlice()).value();
    ASSERT_TRUE(otherSocket->sendTo(tb.inriaEthAddress(), 9001, util::Bytes{1}).ok());
    EXPECT_EQ(ppp->counters().txPackets, 1u);
    EXPECT_EQ(eth->counters().txPackets, ethBefore + 1);
}

TEST_F(UmtsctlTest, IntruderBindingToUmtsAddressIsDropped) {
    // Invariant 1: even binding to the UMTS address or addressing the
    // PPP peer does not get another slice onto ppp0 (§2.3's special
    // cases, handled by the DROP rule).
    const auto started = tb.startUmts();
    ASSERT_TRUE(started.ok());
    ASSERT_TRUE(tb.addUmtsDestination(tb.inriaEthAddress().str() + "/32").ok());
    net::Interface* ppp = tb.napoli().stack().findInterface("ppp0");

    auto intruder = tb.napoli().openSliceUdp(tb.otherSlice()).value();
    intruder->bindAddress(started.value().address);
    (void)intruder->sendTo(tb.inriaEthAddress(), 9001, util::Bytes{1});
    EXPECT_EQ(ppp->counters().txPackets, 0u);

    // Packets aimed at the PPP peer (the GGSN end of the link).
    auto intruder2 = tb.napoli().openSliceUdp(tb.otherSlice()).value();
    (void)intruder2->sendTo(tb.operatorNetwork().profile().ggsnAddress, 22, util::Bytes{1});
    EXPECT_EQ(ppp->counters().txPackets, 0u);
    // The hostile traffic fell through to the default route instead.
    EXPECT_GE(tb.napoli().stack().findInterface("eth0")->counters().txPackets, 2u);
}

TEST_F(UmtsctlTest, OwnerUnmarkedDestinationsStayOnEth) {
    // Invariant 2: the default route is untouched; the owner's traffic
    // to unregistered destinations also stays on eth0.
    ASSERT_TRUE(tb.startUmts().ok());
    net::Interface* ppp = tb.napoli().stack().findInterface("ppp0");
    net::Interface* eth = tb.napoli().stack().findInterface("eth0");
    auto socket = tb.napoli().openSliceUdp(tb.umtsSlice()).value();
    ASSERT_TRUE(socket->sendTo(net::Ipv4Address{8, 8, 8, 8}, 53, util::Bytes{1}).ok());
    EXPECT_EQ(ppp->counters().txPackets, 0u);
    EXPECT_GE(eth->counters().txPackets, 1u);
}

TEST_F(UmtsctlTest, OwnerCanForceUmtsByBinding) {
    // §2.2: "or to explicitly bind to the UMTS interface". The
    // from-<addr> rule routes owner packets bound to ppp0's address.
    const auto started = tb.startUmts();
    ASSERT_TRUE(started.ok());
    net::Interface* ppp = tb.napoli().stack().findInterface("ppp0");
    auto socket = tb.napoli().openSliceUdp(tb.umtsSlice()).value();
    socket->bindAddress(started.value().address);
    ASSERT_TRUE(socket->sendTo(net::Ipv4Address{8, 8, 8, 8}, 53, util::Bytes{1}).ok());
    EXPECT_EQ(ppp->counters().txPackets, 1u);
}

TEST_F(UmtsctlTest, StatusDuringDialShowsLockedNotConnected) {
    std::optional<pl::VsysResult> startResult;
    tb.napoli().vsys().invoke(tb.umtsSlice(), "umts", {"start"},
                              [&](util::Result<pl::VsysResult> r) { startResult = r.value(); });
    tb.sim().runUntil(tb.sim().now() + sim::millis(800));  // mid-registration
    const auto status = invoke(tb.umtsSlice(), {"status"});
    EXPECT_EQ(status.exitCode, exit_code::ok);
    EXPECT_TRUE(hasLine(status, "locked=1"));
    EXPECT_TRUE(hasLine(status, "connected=0"));
    tb.sim().runUntil(tb.sim().now() + sim::seconds(30.0));
    ASSERT_TRUE(startResult.has_value());
    EXPECT_EQ(startResult->exitCode, exit_code::ok);
}

TEST_F(UmtsctlTest, CoverageLossMidFlowCleansUpAndTrafficFallsBack) {
    // Failure injection: the operator drops the PDP context while a
    // slice is actively sending. The backend must tear down its state;
    // subsequent slice traffic to the registered destination falls
    // back to the default (eth0) route instead of vanishing.
    ASSERT_TRUE(tb.startUmts().ok());
    ASSERT_TRUE(tb.addUmtsDestination(tb.inriaEthAddress().str() + "/32").ok());
    auto socket = tb.napoli().openSliceUdp(tb.umtsSlice()).value();
    ASSERT_TRUE(socket->sendTo(tb.inriaEthAddress(), 9001, util::Bytes{1}).ok());

    tb.operatorNetwork().detachUe("222880000000001");  // admin detach
    tb.sim().runUntil(tb.sim().now() + sim::seconds(5.0));
    EXPECT_FALSE(tb.backend().state().connected);
    EXPECT_FALSE(tb.backend().state().locked);
    EXPECT_EQ(tb.napoli().stack().findInterface("ppp0"), nullptr);

    net::Interface* eth = tb.napoli().stack().findInterface("eth0");
    const std::uint64_t ethBefore = eth->counters().txPackets;
    ASSERT_TRUE(socket->sendTo(tb.inriaEthAddress(), 9001, util::Bytes{2}).ok());
    EXPECT_EQ(eth->counters().txPackets, ethBefore + 1);
}

TEST_F(UmtsctlTest, LinkLossCleansUpAndUnlocks) {
    ASSERT_TRUE(tb.startUmts().ok());
    // The operator kills the PDP context under us.
    tb.operatorNetwork().deactivatePdp(tb.operatorNetwork().sessionAt(0));
    tb.sim().runUntil(tb.sim().now() + sim::seconds(10.0));
    EXPECT_FALSE(tb.backend().state().locked);
    EXPECT_FALSE(tb.backend().state().connected);
    EXPECT_EQ(tb.napoli().stack().findInterface("ppp0"), nullptr);
    EXPECT_EQ(tb.napoli().stack().netfilter().ruleCount(), 0u);
    // A new start succeeds afterwards.
    EXPECT_TRUE(tb.startUmts().ok());
}

struct SupervisedUmtsctlTest : UmtsctlTest {
    static TestbedConfig supervisedConfig() {
        TestbedConfig config;
        config.supervise.enable = true;
        return config;
    }
    SupervisedUmtsctlTest() : UmtsctlTest(supervisedConfig()) {}
};

/// `umts status` surfaces the supervisor ladder so a slice can see
/// what recovery is doing to its link (absent on unsupervised nodes).
TEST_F(SupervisedUmtsctlTest, StatusReportsSuperviseLadderRows) {
    ASSERT_TRUE(tb.startUmts().ok());
    tb.sim().runUntil(tb.sim().now() + sim::seconds(2.0));
    const auto status = invoke(tb.umtsSlice(), {"status"});
    EXPECT_EQ(status.exitCode, exit_code::ok);
    EXPECT_TRUE(hasLine(status, "supervise_state=healthy"));
    EXPECT_TRUE(hasLine(status, "supervise_time_in_state_ms="));

    // The typed report carries the same rows through the public API.
    std::optional<util::Result<UmtsReport>> typed;
    tb.umtsCommand().status([&](util::Result<UmtsReport> r) { typed = std::move(r); });
    const sim::SimTime deadline = tb.sim().now() + sim::seconds(30.0);
    while (!typed && tb.sim().now() < deadline)
        tb.sim().runUntil(tb.sim().now() + sim::millis(50));
    ASSERT_TRUE(typed && typed->ok());
    EXPECT_EQ(typed->value().superviseState, "healthy");
    EXPECT_GE(typed->value().superviseTimeInStateMs, 0);
    EXPECT_EQ(typed->value().superviseLastRecoveryMs, -1) << "no incident has happened";
}

TEST_F(UmtsctlTest, StatusOmitsSuperviseRowsWithoutASupervisor) {
    ASSERT_TRUE(tb.startUmts().ok());
    const auto status = invoke(tb.umtsSlice(), {"status"});
    EXPECT_EQ(status.exitCode, exit_code::ok);
    EXPECT_FALSE(hasLine(status, "supervise_state="));
}

}  // namespace
}  // namespace onelab::umtsctl

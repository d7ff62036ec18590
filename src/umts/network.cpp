#include "umts/network.hpp"

#include <algorithm>

#include "obs/registry.hpp"
#include "util/strings.hpp"

namespace onelab::umts {

// ----------------------------------------------------------- channels

/// Adapter exposing one side of the radio bearer as a ByteChannel.
/// Slice-aware on both planes: a writer handing over a refcounted
/// slice rides the RLC queue and delay model without a copy, and a
/// slice-aware receiver gets the queued slice itself.
class UmtsSession::Channel final : public sim::ByteChannel {
  public:
    Channel(sim::Simulator& simulator, RadioBearer& bearer, bool ueSide)
        : sim_(simulator), bearer_(bearer), ueSide_(ueSide) {}

    void write(util::ByteView data) override {
        // A view writer still pays one copy — into a pooled buffer, so
        // the allocation is recycled when the far end lets go.
        submit(sim_.bufferPool().acquireShared(data));
    }

    void write(const util::SharedBytes& data) override { submit(data); }

    void onData(std::function<void(util::ByteView)> handler) override {
        onDataShared([handler = std::move(handler)](const util::SharedBytes& chunk) {
            if (handler) handler(chunk.view());
        });
    }

    void onDataShared(std::function<void(util::SharedBytes)> handler) override {
        if (ueSide_)
            bearer_.setDownlinkSink(std::move(handler));
        else
            bearer_.setUplinkSink(std::move(handler));
    }

  private:
    void submit(util::SharedBytes chunk) {
        if (ueSide_)
            bearer_.sendUplink(std::move(chunk));
        else
            bearer_.sendDownlink(std::move(chunk));
    }

    sim::Simulator& sim_;
    RadioBearer& bearer_;
    bool ueSide_;
};

// ------------------------------------------------------------ session

UmtsSession::UmtsSession(UmtsNetwork& network, std::string imsi,
                         net::Ipv4Address subscriberAddr, int sessionId)
    : network_(network),
      imsi_(std::move(imsi)),
      subscriberAddr_(subscriberAddr),
      sessionId_(sessionId),
      pdpIfaceName_("pdp" + std::to_string(sessionId)) {
    bearer_ = std::make_unique<RadioBearer>(network_.sim_, network_.profile_,
                                            network_.rng_.derive("bearer-" + imsi_), imsi_,
                                            &network_.cell_);
    ueChannel_ = std::make_unique<Channel>(network_.sim_, *bearer_, /*ueSide=*/true);
    netChannel_ = std::make_unique<Channel>(network_.sim_, *bearer_, /*ueSide=*/false);
}

UmtsSession::~UmtsSession() = default;

sim::ByteChannel& UmtsSession::ueChannel() noexcept { return *ueChannel_; }

// ------------------------------------------------------------ network

UmtsNetwork::UmtsNetwork(sim::Simulator& simulator, net::Internet& internet,
                         OperatorProfile profile, util::RandomStream rng)
    : sim_(simulator),
      internet_(internet),
      profile_(std::move(profile)),
      rng_(std::move(rng)),
      log_("umts.net." + profile_.name),
      cell_(profile_.cellUplinkCapacityBps, profile_.cellDownlinkCapacityBps) {
    cell_.setFairnessClamp(profile_.cellFairnessClamp);
    ggsn_ = std::make_unique<net::NetworkStack>(sim_, "ggsn-" + profile_.name);
    ggsn_->setForwarding(true);
    ggsn_->setForwardFilter(
        [this](const net::Packet& pkt, const std::string& iif) { return forwardAllowed(pkt, iif); });

    net::Interface& wan = ggsn_->addInterface("wan");
    wan.setAddress(profile_.ggsnAddress);
    wan.setUp(true);
    wanIface_ = &wan;
    net::AccessLink link;
    link.rateBitsPerSecond = 1e9;
    link.baseDelay = profile_.coreDelay;
    internet_.attach(wan, link);
    internet_.announcePrefix(profile_.subscriberPool, wan);

    // Default route: everything not a subscriber goes to the Internet.
    ggsn_->router().table(net::PolicyRouter::kMainTable)
        .addRoute(net::Route{net::Prefix::any(), "wan", std::nullopt, 0});

    // The operator's resolver, hosted on the GGSN at the address IPCP
    // hands out. Subscribers reach it through the pool prefix.
    net::Interface& dnsIface = ggsn_->addInterface("dns0");
    dnsIface.setAddress(profile_.dnsServer);
    dnsIface.setUp(true);
    dns_ = std::make_unique<net::DnsServer>(*ggsn_, profile_.dnsServer);

    if (profile_.natSubscribers) {
        ggsn_->setPostRoutingHook(
            [this](net::Packet& pkt, const std::string& oif) { natOutbound(pkt, oif); });
        ggsn_->setPreRoutingHook(
            [this](net::Packet& pkt, const std::string& iif) { natInbound(pkt, iif); });
    }
}

void UmtsNetwork::natOutbound(net::Packet& pkt, const std::string& oif) {
    if (oif != "wan" || !profile_.subscriberPool.contains(pkt.ip.src)) return;
    std::uint16_t* port = nullptr;
    int proto = 0;
    if (pkt.ip.protocol == net::IpProto::udp) {
        proto = int(net::IpProto::udp);
        port = &pkt.udp.srcPort;
    } else if (pkt.ip.protocol == net::IpProto::tcp) {
        proto = int(net::IpProto::tcp);
        port = &pkt.tcp.srcPort;
    } else if (pkt.ip.protocol == net::IpProto::icmp &&
               pkt.icmp.type == net::icmp_type::echo_request) {
        proto = int(net::IpProto::icmp);
        port = &pkt.icmp.id;
    } else {
        return;  // untranslatable: leave it (it will likely die upstream)
    }
    const FlowKey flowKey{pkt.ip.src.value(), 0, *port, 0, std::uint8_t(proto)};
    auto it = natByFlow_.find(flowKey);
    if (it == natByFlow_.end()) {
        // Quota check (and table hygiene) before the allocation: a
        // subscriber past its binding quota sends untranslated — its
        // private-source packet dies upstream, not the victim's state.
        if (!reserveNatBinding(pkt.ip.src)) return;
        // Allocate a fresh public port/id for this subscriber flow.
        while (natBindings_.count((std::uint32_t(proto) << 16) | nextNatPort_))
            if (++nextNatPort_ < 20000) nextNatPort_ = 20000;
        const std::uint16_t publicPort = nextNatPort_++;
        natBindings_[(std::uint32_t(proto) << 16) | publicPort] =
            NatBinding{pkt.ip.src, *port, sim_.now(), flowKey};
        ++natBySubscriber_[pkt.ip.src.value()];
        it = natByFlow_.emplace(flowKey, publicPort).first;
        log_.debug() << "NAT bind " << util::format("%d/%08x:%u", proto, pkt.ip.src.value(), *port)
                     << " -> " << publicPort;
    } else {
        const auto binding = natBindings_.find((std::uint32_t(proto) << 16) | it->second);
        if (binding != natBindings_.end()) binding->second.lastActivity = sim_.now();
    }
    pkt.ip.src = profile_.ggsnAddress;
    *port = it->second;
    ++natTranslations_;
}

void UmtsNetwork::dropNatBinding(const std::map<std::uint32_t, NatBinding>::iterator& it) {
    natByFlow_.erase(it->second.flowKey);
    const auto count = natBySubscriber_.find(it->second.subscriber.value());
    if (count != natBySubscriber_.end() && --count->second == 0)
        natBySubscriber_.erase(count);
    natBindings_.erase(it);
}

bool UmtsNetwork::reserveNatBinding(net::Ipv4Address subscriber) {
    const auto& guard = profile_.natGuard;
    const sim::SimTime now = sim_.now();
    // Idle expiry first (bindingTimeout 0 = never expire) — the
    // operator-side NAT timeout the paper's keepalive traffic fights.
    if (guard.bindingTimeout > sim::SimTime{0}) {
        for (auto it = natBindings_.begin(); it != natBindings_.end();) {
            if (now - it->second.lastActivity > guard.bindingTimeout) {
                obs::Registry::instance().counter("guard.nat.expired").inc();
                const auto victim = it++;
                dropNatBinding(victim);
            } else {
                ++it;
            }
        }
    }
    // Per-subscriber quota: the churn guard proper.
    if (guard.perSubscriberQuota > 0) {
        const auto count = natBySubscriber_.find(subscriber.value());
        if (count != natBySubscriber_.end() && count->second >= guard.perSubscriberQuota) {
            ++natQuotaDenials_;
            obs::Registry::instance().counter("guard.nat.quota_denied").inc();
            // Debug level: under a flow-spray attack this fires per
            // denied packet; the counter is the signal.
            log_.debug() << "NAT quota denied for subscriber " << subscriber.str();
            return false;
        }
    }
    // Capacity cap: evict the oldest-idle binding (what a churner
    // exploits when the quota guard is off — victims lose bindings).
    while (guard.maxBindings > 0 && natBindings_.size() >= guard.maxBindings) {
        auto oldest = natBindings_.begin();
        for (auto it = natBindings_.begin(); it != natBindings_.end(); ++it)
            if (it->second.lastActivity < oldest->second.lastActivity) oldest = it;
        ++natEvictions_;
        obs::Registry::instance().counter("guard.nat.evicted").inc();
        dropNatBinding(oldest);
    }
    return true;
}

void UmtsNetwork::natInbound(net::Packet& pkt, const std::string& iif) {
    if (iif != "wan" || pkt.ip.dst != profile_.ggsnAddress) return;
    int proto = 0;
    std::uint16_t* port = nullptr;
    if (pkt.ip.protocol == net::IpProto::udp) {
        proto = int(net::IpProto::udp);
        port = &pkt.udp.dstPort;
    } else if (pkt.ip.protocol == net::IpProto::tcp) {
        proto = int(net::IpProto::tcp);
        port = &pkt.tcp.dstPort;
    } else if (pkt.ip.protocol == net::IpProto::icmp &&
               pkt.icmp.type == net::icmp_type::echo_reply) {
        proto = int(net::IpProto::icmp);
        port = &pkt.icmp.id;
    } else {
        return;  // local GGSN traffic (e.g. pings to the GGSN itself)
    }
    const auto it = natBindings_.find((std::uint32_t(proto) << 16) | *port);
    if (it == natBindings_.end()) return;  // no binding: deliver locally (and die)
    it->second.lastActivity = sim_.now();
    pkt.ip.dst = it->second.subscriber;
    *port = it->second.subscriberPort;
    ++natTranslations_;
}

UmtsNetwork::~UmtsNetwork() {
    if (coverageRestore_.valid()) sim_.cancel(coverageRestore_);
    while (!sessions_.empty()) deactivatePdp(sessions_.back().get());
    if (wanIface_) internet_.detach(*wanIface_);
}

void UmtsNetwork::addDnsRecord(const std::string& name, net::Ipv4Address address) {
    dns_->addRecord(name, address);
}

int UmtsNetwork::signalQuality() {
    if (!coverage_) return 99;  // 99 = unknown/no signal in AT+CSQ
    const int noise = int(rng_.uniformInt(-2, 2));
    return std::clamp(profile_.signalQualityCsq + noise, 0, 31);
}

void UmtsNetwork::attachUe(const std::string& imsi,
                           std::function<void(util::Result<void>)> done) {
    if (!coverage_) {
        if (done) done(util::err(util::Error::Code::io, "no network coverage"));
        return;
    }
    if (attached_.count(imsi)) {
        if (done) done(util::Result<void>{});
        return;
    }
    const auto& guard = profile_.signalingGuard;
    const std::size_t backlog = attaching_.size();

    // Access class barring (the guard): past the barring limit the
    // network refuses new attaches outright, so a signaling storm
    // cannot inflate the whole cell's registration delay without
    // bound. Refused UEs retry through their own backoff ladders.
    if (guard.enabled && backlog >= guard.barringLimit) {
        obs::Registry::instance().counter("guard.umts.attach_throttled").inc();
        log_.warn() << "UE " << imsi << " attach barred (" << backlog
                    << " registrations in flight)";
        if (done)
            done(util::err(util::Error::Code::busy,
                           "attach rejected: access class barring"));
        return;
    }

    // Signaling congestion (the physics): registration under RACH/core
    // overload slows down for everyone, scaling with the backlog.
    sim::SimTime delay = profile_.registrationDelay;
    if (guard.congestionStart > 0 && backlog >= guard.congestionStart) {
        const double factor = std::min(double(backlog) / double(guard.congestionStart),
                                       guard.maxCongestionFactor);
        delay = sim::seconds(sim::toSeconds(delay) * factor);
        obs::Registry::instance().counter("guard.umts.attach_delayed").inc();
        log_.warn() << "UE " << imsi << " attach delayed x" << factor << " ("
                    << backlog << " registrations in flight)";
    }

    log_.info() << "UE " << imsi << " attaching";
    attaching_[imsi] = sim_.schedule(delay, [this, imsi, done] {
        attaching_.erase(imsi);
        attached_.insert(imsi);
        log_.info() << "UE " << imsi << " attached (CREG=1)";
        if (done) done(util::Result<void>{});
    });
}

void UmtsNetwork::detachUe(const std::string& imsi) {
    const auto pending = attaching_.find(imsi);
    if (pending != attaching_.end()) {
        sim_.cancel(pending->second);
        attaching_.erase(pending);
    }
    attached_.erase(imsi);
    // Drop this UE's sessions too.
    for (std::size_t i = sessions_.size(); i-- > 0;) {
        if (sessions_[i]->imsi() == imsi) deactivatePdp(sessions_[i].get());
    }
}

bool UmtsNetwork::isAttached(const std::string& imsi) const { return attached_.count(imsi) > 0; }

void UmtsNetwork::onUeDetached(const std::string& imsi, std::function<void()> callback) {
    if (callback)
        detachListeners_[imsi] = std::move(callback);
    else
        detachListeners_.erase(imsi);
}

void UmtsNetwork::notifyDetached(const std::string& imsi) {
    // Copy before invoking: the listener may re-register itself.
    const auto it = detachListeners_.find(imsi);
    if (it == detachListeners_.end()) return;
    const auto callback = it->second;
    if (callback) callback();
}

void UmtsNetwork::injectDetach(const std::string& imsi) {
    if (!attached_.count(imsi) && !attaching_.count(imsi)) return;
    log_.warn() << "injected network detach for " << imsi;
    obs::Registry::instance().counter("fault.umts.detaches").inc();
    detachUe(imsi);
    notifyDetached(imsi);
}

bool UmtsNetwork::injectBearerDrop(const std::string& imsi) {
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
        if (sessions_[i]->imsi() != imsi || !sessions_[i]->active()) continue;
        log_.warn() << "injected bearer drop for " << imsi;
        obs::Registry::instance().counter("fault.umts.bearer_drops").inc();
        deactivatePdp(sessions_[i].get());
        return true;
    }
    return false;
}

void UmtsNetwork::injectCoverageOutage(sim::SimTime duration) {
    obs::Registry::instance().counter("fault.umts.coverage_outages").inc();
    log_.warn() << "coverage lost for " << sim::formatTime(duration);
    coverage_ = false;
    // Every camped (or attaching) UE loses registration; sessions drop
    // with it. Listeners fire so cards start scanning again.
    std::vector<std::string> victims;
    for (const auto& imsi : attached_) victims.push_back(imsi);
    for (const auto& [imsi, handle] : attaching_)
        if (!attached_.count(imsi)) victims.push_back(imsi);
    for (const std::string& imsi : victims) {
        detachUe(imsi);
        notifyDetached(imsi);
    }
    const sim::SimTime restoreAt = std::max(coverageRestoreAt_, sim_.now() + duration);
    coverageRestoreAt_ = restoreAt;
    if (coverageRestore_.valid()) sim_.cancel(coverageRestore_);
    coverageRestore_ = sim_.scheduleAt(restoreAt, [this] {
        coverageRestore_ = {};
        coverage_ = true;
        log_.info() << "coverage restored";
    });
}

std::size_t UmtsNetwork::injectFlowChurn(net::Ipv4Address subscriber,
                                         net::Ipv4Address destination,
                                         std::uint16_t basePort, std::size_t flows) {
    std::size_t recorded = 0;
    for (std::size_t i = 0; i < flows; ++i) {
        net::Packet pkt;
        pkt.ip.src = subscriber;
        pkt.ip.dst = destination;
        pkt.ip.protocol = net::IpProto::udp;
        // Rotate ports so every synthetic packet is a distinct flow.
        pkt.udp.srcPort = std::uint16_t(1024u + ((basePort + i) % 50000u));
        pkt.udp.dstPort = 33001;
        const std::size_t before = flows_.size();
        (void)forwardAllowed(pkt, "pdp_churn");
        if (flows_.size() > before) ++recorded;
        if (profile_.natSubscribers) natOutbound(pkt, "wan");
    }
    return recorded;
}

net::Ipv4Address UmtsNetwork::allocateSubscriberAddress() {
    if (!freedAddresses_.empty()) {
        const net::Ipv4Address addr = freedAddresses_.back();
        freedAddresses_.pop_back();
        return addr;
    }
    return net::Ipv4Address{profile_.subscriberPool.base().value() + nextHostOffset_++};
}

void UmtsNetwork::releaseSubscriberAddress(net::Ipv4Address addr) {
    freedAddresses_.push_back(addr);
}

void UmtsNetwork::activatePdp(const std::string& imsi, const std::string& apn,
                              std::function<void(util::Result<UmtsSession*>)> done) {
    if (!isAttached(imsi)) {
        if (done) done(util::err(util::Error::Code::state, "UE not attached"));
        return;
    }
    if (apn != profile_.apn) {
        if (done) done(util::err(util::Error::Code::invalid_argument, "unknown APN '" + apn + "'"));
        return;
    }
    // One PDP context per IMSI: a second concurrent activation would
    // alias the first session's bearer (and its leased metric prefix).
    const auto hasPdp = [this](const std::string& subscriber) {
        return std::any_of(sessions_.begin(), sessions_.end(), [&](const auto& s) {
            return s->imsi() == subscriber && s->active();
        });
    };
    if (hasPdp(imsi)) {
        if (done)
            done(util::err(util::Error::Code::state,
                           "PDP context already active for " + imsi));
        return;
    }
    sim_.schedule(profile_.pdpActivationDelay, [this, imsi, done, hasPdp] {
        if (!isAttached(imsi)) {
            if (done) done(util::err(util::Error::Code::state, "UE detached during activation"));
            return;
        }
        if (hasPdp(imsi)) {
            if (done)
                done(util::err(util::Error::Code::state,
                               "PDP context already active for " + imsi));
            return;
        }
        auto session = std::unique_ptr<UmtsSession>(
            new UmtsSession{*this, imsi, allocateSubscriberAddress(), nextSessionId_++});
        UmtsSession* raw = session.get();
        sessions_.push_back(std::move(session));
        installSession(*raw);
        log_.info() << "PDP context active for " << imsi << " addr "
                    << raw->subscriberAddress().str();
        if (done) done(raw);
    });
}

void UmtsNetwork::installSession(UmtsSession& session) {
    // Per-session GGSN-side PPP endpoint.
    ppp::PppdConfig config;
    config.name = "ggsn-" + profile_.name + "-s" + std::to_string(session.sessionId_);
    config.isServer = true;
    config.requireAuth = profile_.authProtocol;
    config.acceptAnyPeer = profile_.acceptAnyCredentials;
    config.secretLookup = [this](const std::string& user) -> std::optional<std::string> {
        const auto it = profile_.subscribers.find(user);
        if (it == profile_.subscribers.end()) return std::nullopt;
        return it->second;
    };
    config.localAddress = profile_.ggsnAddress;
    config.addressForPeer = session.subscriberAddress();
    config.dnsServer = profile_.dnsServer;
    config.ccp.enable = true;  // GGSN offers compression; UE may reject
    config.enableEcho = false;  // GGSNs do not run aggressive LCP echo
    config.seed = rng_.derive("pppd-" + std::to_string(session.sessionId_)).seed();
    session.ggsnPppd_ = std::make_unique<ppp::Pppd>(sim_, config);
    session.ggsnPppd_->attach(*session.netChannel_);

    // GGSN-side virtual interface for the subscriber.
    net::Interface& iface = ggsn_->addInterface(session.pdpIfaceName_);
    iface.setAddress(profile_.ggsnAddress);
    iface.setPeerAddress(session.subscriberAddress());
    iface.setUp(true);
    iface.setTxHandler([pppd = session.ggsnPppd_.get()](net::Packet pkt) {
        const util::Bytes wire = pkt.serialize();
        (void)pppd->sendIpDatagram({wire.data(), wire.size()});
    });
    session.ggsnPppd_->onIpDatagram = [this, ifaceName = session.pdpIfaceName_](
                                          util::ByteView datagram) {
        auto parsed = net::Packet::parse(datagram);
        if (!parsed.ok()) {
            log_.warn() << "GGSN: undecodable datagram from subscriber";
            return;
        }
        net::Interface* iface = ggsn_->findInterface(ifaceName);
        if (iface) iface->deliver(std::move(parsed.value()));
    };

    // Host route toward the subscriber.
    ggsn_->router().table(net::PolicyRouter::kMainTable)
        .addRoute(net::Route{net::Prefix::host(session.subscriberAddress()),
                             session.pdpIfaceName_, std::nullopt, 0});

    session.ggsnPppd_->start();
}

void UmtsNetwork::removeSession(UmtsSession& session) {
    if (session.onTeardown) session.onTeardown();
    if (session.ggsnPppd_) session.ggsnPppd_->abortLink();
    ggsn_->router().table(net::PolicyRouter::kMainTable)
        .delRoute(net::Prefix::host(session.subscriberAddress()), session.pdpIfaceName_);
    (void)ggsn_->removeInterface(session.pdpIfaceName_);
    session.bearer_->shutdown();
    releaseSubscriberAddress(session.subscriberAddress());
    session.active_ = false;
}

void UmtsNetwork::deactivatePdp(UmtsSession* session) {
    if (!session) return;
    const auto it = std::find_if(sessions_.begin(), sessions_.end(),
                                 [&](const auto& s) { return s.get() == session; });
    if (it == sessions_.end()) return;
    log_.info() << "PDP context for " << session->imsi() << " deactivated";
    removeSession(*session);
    sessions_.erase(it);
}

std::size_t FlowKeyHash::operator()(const FlowKey& key) const noexcept {
    std::uint64_t h = (std::uint64_t(key.srcAddr) << 32) | key.dstAddr;
    h ^= ((std::uint64_t(key.srcPort) << 24) | (std::uint64_t(key.dstPort) << 8) | key.proto) *
         0x9e3779b97f4a7c15ull;
    h ^= h >> 29;
    h *= 0xbf58476d1ce4e5b9ull;
    return std::size_t(h ^ (h >> 32));
}

namespace {

FlowKey flowKey(const net::Packet& pkt, bool reverse) {
    const net::Ipv4Address a = reverse ? pkt.ip.dst : pkt.ip.src;
    const net::Ipv4Address b = reverse ? pkt.ip.src : pkt.ip.dst;
    std::uint16_t portA = 0;
    std::uint16_t portB = 0;
    if (pkt.ip.protocol == net::IpProto::udp) {
        portA = reverse ? pkt.udp.dstPort : pkt.udp.srcPort;
        portB = reverse ? pkt.udp.srcPort : pkt.udp.dstPort;
    } else if (pkt.ip.protocol == net::IpProto::tcp) {
        portA = reverse ? pkt.tcp.dstPort : pkt.tcp.srcPort;
        portB = reverse ? pkt.tcp.srcPort : pkt.tcp.dstPort;
    } else if (pkt.ip.protocol == net::IpProto::icmp) {
        portA = portB = pkt.icmp.id;  // echo id pairs request/reply
    }
    return {a.value(), b.value(), portA, portB, std::uint8_t(pkt.ip.protocol)};
}

/// The flow's text form "proto/srcaddr:srcport>dstaddr:dstport", the
/// firewall table's key before it was packed; eviction ties on `last`
/// still go to the flow whose text sorts first.
std::string flowText(const FlowKey& key) {
    return util::format("%u/%08x:%u>%08x:%u", unsigned(key.proto), key.srcAddr,
                        unsigned(key.srcPort), key.dstAddr, unsigned(key.dstPort));
}

}  // namespace

void UmtsNetwork::eraseFlow(FlowTable::iterator it) {
    const auto count = flowsBySrc_.find(it->second.src);
    if (count != flowsBySrc_.end() && --count->second == 0) flowsBySrc_.erase(count);
    flows_.erase(it);
}

void UmtsNetwork::recordFlow(const FlowKey& key, std::uint32_t src) {
    const sim::SimTime now = sim_.now();
    const auto existing = flows_.find(key);
    if (existing != flows_.end()) {
        existing->second.last = now;
        return;
    }
    const auto& guard = profile_.natGuard;
    // Per-subscriber flow quota: a sprayer past its quota still passes
    // outbound, but no return-path state is recorded for it — its own
    // replies die at the firewall, not a victim's.
    if (guard.perSubscriberQuota > 0) {
        const auto count = flowsBySrc_.find(src);
        if (count != flowsBySrc_.end() && count->second >= guard.perSubscriberQuota) {
            obs::Registry::instance().counter("guard.firewall.quota_denied").inc();
            return;
        }
    }
    if (guard.maxFirewallFlows > 0 && flows_.size() >= guard.maxFirewallFlows) {
        // Expired-first purge, then oldest eviction to make room.
        for (auto victim = flows_.begin(); victim != flows_.end();) {
            if (now - victim->second.last > flowTimeout_) {
                const auto dead = victim++;
                eraseFlow(dead);
            } else {
                ++victim;
            }
        }
        while (flows_.size() >= guard.maxFirewallFlows) {
            auto oldest = flows_.begin();
            for (auto victim = flows_.begin(); victim != flows_.end(); ++victim)
                if (victim->second.last < oldest->second.last ||
                    (victim->second.last == oldest->second.last &&
                     victim->second.text < oldest->second.text))
                    oldest = victim;
            obs::Registry::instance().counter("guard.firewall.evicted").inc();
            eraseFlow(oldest);
        }
    }
    flows_.emplace(key, FlowEntry{now, src, flowText(key)});
    ++flowsBySrc_[src];
}

bool UmtsNetwork::forwardAllowed(const net::Packet& pkt, const std::string& iif) {
    if (!profile_.statefulFirewall) return true;
    const sim::SimTime now = sim_.now();
    if (iif != "wan") {
        // Subscriber-originated: record/refresh the flow and pass.
        recordFlow(flowKey(pkt, /*reverse=*/false), pkt.ip.src.value());
        return true;
    }
    // Internet-originated: only established flows may enter...
    const auto it = flows_.find(flowKey(pkt, /*reverse=*/true));
    if (it != flows_.end() && now - it->second.last <= flowTimeout_) {
        it->second.last = now;
        return true;
    }
    // ...or ICMP errors RELATED to a recorded outbound flow (so
    // traceroute and path-MTU style signalling still work).
    if (pkt.ip.protocol == net::IpProto::icmp &&
        (pkt.icmp.type == net::icmp_type::dest_unreachable ||
         pkt.icmp.type == net::icmp_type::time_exceeded)) {
        const auto embedded =
            net::parseIcmpErrorPayload({pkt.payload.data(), pkt.payload.size()});
        if (embedded.ok()) {
            const net::EmbeddedDatagram& original = embedded.value();
            const auto related = flows_.find(FlowKey{original.src.value(), original.dst.value(),
                                                     original.srcPort, original.dstPort,
                                                     std::uint8_t(original.protocol)});
            if (related != flows_.end() && now - related->second.last <= flowTimeout_)
                return true;
        }
    }
    ++firewallBlocked_;
    log_.debug() << "firewall blocked inbound " << pkt.describe();
    return false;
}

}  // namespace onelab::umts

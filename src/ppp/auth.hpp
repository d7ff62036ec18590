#pragma once

#include <functional>
#include <optional>
#include <string>

#include "ppp/framer.hpp"
#include "ppp/lcp.hpp"
#include "ppp/options.hpp"
#include "sim/simulator.hpp"
#include "util/logging.hpp"
#include "util/rand.hpp"

namespace onelab::ppp {

/// Username/password pair used by PAP and CHAP.
struct Credentials {
    std::string username;
    std::string password;
};

/// Peer-side of authentication (the UE proving itself to the GGSN).
/// Drives PAP (RFC 1334) or CHAP-MD5 (RFC 1994) depending on what LCP
/// negotiated.
class Authenticatee {
  public:
    Authenticatee(sim::Simulator& simulator, AuthProtocol protocol, Credentials credentials,
                  std::function<void(Protocol, const ControlPacket&)> sender);
    ~Authenticatee();

    /// Begin: PAP sends Authenticate-Request immediately (with
    /// retransmit); CHAP waits for the challenge. Either fails after
    /// the retry budget without a verdict.
    void start();
    void stop();

    /// Feed a PAP/CHAP packet from the line.
    void receive(Protocol protocol, const ControlPacket& packet);

    /// Fires exactly once with the outcome.
    std::function<void(bool ok, std::string message)> onResult;

  private:
    void sendPapRequest();
    void armChapTimeout();
    void finish(bool ok, std::string message);

    sim::Simulator& sim_;
    util::Logger log_{"ppp.auth.peer"};
    AuthProtocol protocol_;
    Credentials credentials_;
    std::function<void(Protocol, const ControlPacket&)> sender_;
    sim::EventHandle retryTimer_;
    int retriesLeft_ = 4;
    std::uint8_t papId_ = 1;
    bool done_ = false;
};

/// Authenticator side (the GGSN checking the UE). Looks up secrets by
/// username through a callback so operator profiles can plug in their
/// subscriber database.
class Authenticator {
  public:
    Authenticator(sim::Simulator& simulator, AuthProtocol protocol, std::string localName,
                  std::function<std::optional<std::string>(const std::string&)> secretLookup,
                  std::function<void(Protocol, const ControlPacket&)> sender,
                  util::RandomStream rng);
    ~Authenticator();

    /// Begin: CHAP sends the challenge (with retransmit); PAP waits
    /// for the peer's request.
    void start();
    void stop();

    /// Accept any credentials (commercial consumer APNs ignore the
    /// username/password but still run the auth exchange).
    void setAcceptAll(bool acceptAll) noexcept { acceptAll_ = acceptAll; }

    void receive(Protocol protocol, const ControlPacket& packet);

    std::function<void(bool ok, std::string peerName)> onResult;

  private:
    void sendChallenge();
    void finish(bool ok, std::string peerName);

    sim::Simulator& sim_;
    util::Logger log_{"ppp.auth.server"};
    AuthProtocol protocol_;
    std::string localName_;
    std::function<std::optional<std::string>(const std::string&)> secretLookup_;
    std::function<void(Protocol, const ControlPacket&)> sender_;
    util::RandomStream rng_;
    sim::EventHandle retryTimer_;
    int retriesLeft_ = 4;
    std::uint8_t chapId_ = 1;
    util::Bytes challenge_;
    bool done_ = false;
    bool acceptAll_ = false;
};

}  // namespace onelab::ppp

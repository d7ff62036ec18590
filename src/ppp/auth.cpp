#include "ppp/auth.hpp"

#include "util/md5.hpp"

namespace onelab::ppp {

namespace {

// PAP codes (RFC 1334).
constexpr std::uint8_t kPapRequest = 1;
constexpr std::uint8_t kPapAck = 2;
constexpr std::uint8_t kPapNak = 3;

// CHAP codes (RFC 1994).
constexpr std::uint8_t kChapChallenge = 1;
constexpr std::uint8_t kChapResponse = 2;
constexpr std::uint8_t kChapSuccess = 3;
constexpr std::uint8_t kChapFailure = 4;

constexpr sim::SimTime kRetryInterval = sim::millis(1000);

util::Md5::Digest chapDigest(std::uint8_t id, const std::string& secret,
                             util::ByteView challenge) {
    util::Md5 md5;
    md5.update(util::ByteView{&id, 1});
    md5.update(secret);
    md5.update(challenge);
    return md5.finish();
}

/// CHAP challenge/response body: value-size(1), value, name.
struct ChapBody {
    util::Bytes value;
    std::string name;
};

std::optional<ChapBody> parseChapBody(util::ByteView data) {
    if (data.empty()) return std::nullopt;
    const std::size_t valueSize = data[0];
    if (data.size() < 1 + valueSize) return std::nullopt;
    ChapBody body;
    body.value.assign(data.begin() + 1, data.begin() + 1 + long(valueSize));
    body.name.assign(data.begin() + 1 + long(valueSize), data.end());
    return body;
}

util::Bytes encodeChapBody(util::ByteView value, const std::string& name) {
    util::Bytes out;
    util::putU8(out, std::uint8_t(value.size()));
    util::putBytes(out, value);
    out.insert(out.end(), name.begin(), name.end());
    return out;
}

}  // namespace

// ---------------------------------------------------------------- peer

Authenticatee::Authenticatee(sim::Simulator& simulator, AuthProtocol protocol,
                             Credentials credentials,
                             std::function<void(Protocol, const ControlPacket&)> sender)
    : sim_(simulator),
      protocol_(protocol),
      credentials_(std::move(credentials)),
      sender_(std::move(sender)) {}

Authenticatee::~Authenticatee() { stop(); }

void Authenticatee::start() {
    done_ = false;
    retriesLeft_ = 4;
    if (protocol_ == AuthProtocol::none) {
        finish(true, "no authentication required");
        return;
    }
    if (protocol_ == AuthProtocol::pap)
        sendPapRequest();
    else
        armChapTimeout();  // CHAP: passive until the challenge arrives
}

void Authenticatee::stop() {
    if (retryTimer_.valid()) sim_.cancel(retryTimer_);
    retryTimer_ = {};
}

void Authenticatee::sendPapRequest() {
    if (done_) return;
    if (retriesLeft_-- <= 0) {
        finish(false, "PAP timeout");
        return;
    }
    ControlPacket packet;
    packet.code = Code{kPapRequest};
    packet.identifier = papId_;
    util::putU8(packet.data, std::uint8_t(credentials_.username.size()));
    packet.data.insert(packet.data.end(), credentials_.username.begin(),
                       credentials_.username.end());
    util::putU8(packet.data, std::uint8_t(credentials_.password.size()));
    packet.data.insert(packet.data.end(), credentials_.password.begin(),
                       credentials_.password.end());
    sender_(Protocol::pap, packet);
    retryTimer_ = sim_.schedule(kRetryInterval, [this] { sendPapRequest(); });
}

void Authenticatee::armChapTimeout() {
    // The same budget PAP gets (retriesLeft_ x kRetryInterval), counted
    // from the last Challenge: a lost Success or Failure must not leave
    // the link in the authenticate phase for good.
    stop();
    retryTimer_ = sim_.schedule(kRetryInterval * retriesLeft_, [this] {
        retryTimer_ = {};
        finish(false, "CHAP timeout");
    });
}

void Authenticatee::receive(Protocol protocol, const ControlPacket& packet) {
    if (done_) return;
    if (protocol == Protocol::pap && protocol_ == AuthProtocol::pap) {
        if (std::uint8_t(packet.code) == kPapAck)
            finish(true, "PAP accepted");
        else if (std::uint8_t(packet.code) == kPapNak)
            finish(false, "PAP rejected");
        return;
    }
    if (protocol == Protocol::chap && protocol_ == AuthProtocol::chap_md5) {
        const std::uint8_t code = std::uint8_t(packet.code);
        if (code == kChapChallenge) {
            const auto body = parseChapBody(packet.data);
            if (!body) return;
            const auto digest = chapDigest(packet.identifier, credentials_.password,
                                           util::ByteView{body->value.data(), body->value.size()});
            ControlPacket response;
            response.code = Code{kChapResponse};
            response.identifier = packet.identifier;
            response.data = encodeChapBody(util::ByteView{digest.data(), digest.size()},
                                           credentials_.username);
            sender_(Protocol::chap, response);
            armChapTimeout();
        } else if (code == kChapSuccess) {
            finish(true, "CHAP success");
        } else if (code == kChapFailure) {
            finish(false, "CHAP failure");
        }
    }
}

void Authenticatee::finish(bool ok, std::string message) {
    if (done_) return;
    done_ = true;
    stop();
    log_.info() << "authentication " << (ok ? "succeeded" : "FAILED") << ": " << message;
    if (onResult) onResult(ok, std::move(message));
}

// ---------------------------------------------------------- authenticator

Authenticator::Authenticator(
    sim::Simulator& simulator, AuthProtocol protocol, std::string localName,
    std::function<std::optional<std::string>(const std::string&)> secretLookup,
    std::function<void(Protocol, const ControlPacket&)> sender, util::RandomStream rng)
    : sim_(simulator),
      protocol_(protocol),
      localName_(std::move(localName)),
      secretLookup_(std::move(secretLookup)),
      sender_(std::move(sender)),
      rng_(std::move(rng)) {}

Authenticator::~Authenticator() { stop(); }

void Authenticator::start() {
    done_ = false;
    retriesLeft_ = 4;
    if (protocol_ == AuthProtocol::none) {
        finish(true, "");
        return;
    }
    if (protocol_ == AuthProtocol::chap_md5) sendChallenge();
    // PAP: passive until the peer's Authenticate-Request.
}

void Authenticator::stop() {
    if (retryTimer_.valid()) sim_.cancel(retryTimer_);
    retryTimer_ = {};
}

void Authenticator::sendChallenge() {
    if (done_) return;
    if (retriesLeft_-- <= 0) {
        finish(false, "");
        return;
    }
    if (challenge_.empty()) {
        challenge_.resize(16);
        for (auto& byte : challenge_) byte = std::uint8_t(rng_.uniformInt(0, 255));
        chapId_++;
    }
    ControlPacket packet;
    packet.code = Code{kChapChallenge};
    packet.identifier = chapId_;
    packet.data = encodeChapBody(util::ByteView{challenge_.data(), challenge_.size()},
                                 localName_);
    sender_(Protocol::chap, packet);
    retryTimer_ = sim_.schedule(kRetryInterval, [this] { sendChallenge(); });
}

void Authenticator::receive(Protocol protocol, const ControlPacket& packet) {
    if (done_) return;
    if (protocol == Protocol::pap && protocol_ == AuthProtocol::pap) {
        if (std::uint8_t(packet.code) != kPapRequest) return;
        util::ByteReader reader{{packet.data.data(), packet.data.size()}};
        const std::size_t nameLength = reader.u8();
        const util::Bytes name = reader.bytes(nameLength);
        const std::size_t passwordLength = reader.u8();
        const util::Bytes password = reader.bytes(passwordLength);
        ControlPacket reply;
        reply.identifier = packet.identifier;
        const std::string username{name.begin(), name.end()};
        const auto secret = reader.ok() ? secretLookup_(username) : std::nullopt;
        const bool ok = acceptAll_ ||
                        (secret && *secret == std::string{password.begin(), password.end()});
        reply.code = Code{ok ? kPapAck : kPapNak};
        const std::string message = ok ? "Login ok" : "Login incorrect";
        util::putU8(reply.data, std::uint8_t(message.size()));
        reply.data.insert(reply.data.end(), message.begin(), message.end());
        sender_(Protocol::pap, reply);
        finish(ok, username);
        return;
    }
    if (protocol == Protocol::chap && protocol_ == AuthProtocol::chap_md5) {
        if (std::uint8_t(packet.code) != kChapResponse || packet.identifier != chapId_) return;
        const auto body = parseChapBody(packet.data);
        if (!body) return;
        const auto secret = secretLookup_(body->name);
        bool ok = acceptAll_;
        if (!ok && secret) {
            const auto expected =
                chapDigest(chapId_, *secret,
                           util::ByteView{challenge_.data(), challenge_.size()});
            ok = body->value.size() == expected.size() &&
                 std::equal(expected.begin(), expected.end(), body->value.begin());
        }
        ControlPacket reply;
        reply.code = Code{ok ? kChapSuccess : kChapFailure};
        reply.identifier = chapId_;
        const std::string message = ok ? "Welcome" : "Authentication failed";
        reply.data.assign(message.begin(), message.end());
        sender_(Protocol::chap, reply);
        finish(ok, body->name);
    }
}

void Authenticator::finish(bool ok, std::string peerName) {
    if (done_) return;
    done_ = true;
    stop();
    log_.info() << "peer authentication " << (ok ? "succeeded" : "FAILED") << " for '"
                << peerName << "'";
    if (onResult) onResult(ok, std::move(peerName));
}

}  // namespace onelab::ppp

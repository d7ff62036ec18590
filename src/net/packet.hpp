#pragma once

#include <cstdint>
#include <string>

#include "net/address.hpp"
#include "sim/time.hpp"
#include "util/bytes.hpp"
#include "util/result.hpp"

namespace onelab::net {

/// IP protocol numbers used by the stack.
enum class IpProto : std::uint8_t {
    icmp = 1,
    tcp = 6,
    udp = 17,
};

/// Subset of the IPv4 header the simulation models. Serialisation
/// produces a real 20-byte RFC 791 header (version/IHL, total length,
/// TTL, protocol, checksum) so byte-level links (PPP) carry valid
/// datagrams.
struct Ipv4Header {
    Ipv4Address src;
    Ipv4Address dst;
    IpProto protocol = IpProto::udp;
    std::uint8_t ttl = 64;
    std::uint8_t tos = 0;
    std::uint16_t identification = 0;
};

/// UDP header (ports; length/checksum are derived on serialisation).
struct UdpHeader {
    std::uint16_t srcPort = 0;
    std::uint16_t dstPort = 0;
};

/// TCP header flags.
namespace tcp_flag {
inline constexpr std::uint8_t fin = 0x01;
inline constexpr std::uint8_t syn = 0x02;
inline constexpr std::uint8_t rst = 0x04;
inline constexpr std::uint8_t psh = 0x08;
inline constexpr std::uint8_t ack = 0x10;
}  // namespace tcp_flag

/// TCP header (20 bytes on the wire; no options modelled).
struct TcpHeader {
    std::uint16_t srcPort = 0;
    std::uint16_t dstPort = 0;
    std::uint32_t seq = 0;
    std::uint32_t ackNumber = 0;
    std::uint8_t flags = 0;
    std::uint16_t window = 65535;

    [[nodiscard]] bool has(std::uint8_t flag) const noexcept { return (flags & flag) != 0; }
};

/// ICMP header (echo pair and error messages).
struct IcmpHeader {
    std::uint8_t type = 8;  ///< 8/0 echo, 3 dest-unreachable, 11 time-exceeded
    std::uint8_t code = 0;
    std::uint16_t id = 0;        ///< echo only (unused/zero in errors)
    std::uint16_t sequence = 0;  ///< echo only
};

/// Well-known ICMP types the stack handles.
namespace icmp_type {
inline constexpr std::uint8_t echo_reply = 0;
inline constexpr std::uint8_t dest_unreachable = 3;  // code 3 = port unreachable
inline constexpr std::uint8_t echo_request = 8;
inline constexpr std::uint8_t time_exceeded = 11;
}  // namespace icmp_type

/// A network packet plus the node-local metadata Linux would keep in
/// the skb: firewall mark and originating slice context (VNET+). The
/// metadata does NOT survive serialisation — exactly like skb fields.
struct Packet {
    Ipv4Header ip;
    UdpHeader udp;    ///< meaningful when ip.protocol == udp
    IcmpHeader icmp;  ///< meaningful when ip.protocol == icmp
    TcpHeader tcp;    ///< meaningful when ip.protocol == tcp
    util::Bytes payload;

    // --- node-local metadata (not serialised) ---
    std::uint32_t fwmark = 0;  ///< netfilter mark
    int sliceXid = 0;          ///< originating security context, 0 = root
    sim::SimTime stamp{};      ///< scratch timestamp (e.g. enqueue time)

    /// Total on-the-wire IP datagram size (IP header + L4 header + payload).
    [[nodiscard]] std::size_t wireSize() const noexcept;

    /// Serialise to an IPv4 datagram (network byte order, with header
    /// checksum). Metadata fields are not encoded.
    [[nodiscard]] util::Bytes serialize() const;

    /// Parse a serialised datagram; validates version, length, and the
    /// IP header checksum. Metadata comes back defaulted.
    static util::Result<Packet> parse(util::ByteView data);

    /// Short human-readable description for logs.
    [[nodiscard]] std::string describe() const;
};

/// Build a UDP packet.
[[nodiscard]] Packet makeUdpPacket(Ipv4Address src, std::uint16_t srcPort, Ipv4Address dst,
                                   std::uint16_t dstPort, util::Bytes payload);

/// Build a TCP segment.
[[nodiscard]] Packet makeTcpSegment(Ipv4Address src, std::uint16_t srcPort, Ipv4Address dst,
                                    std::uint16_t dstPort, const TcpHeader& header,
                                    util::Bytes payload = {});

/// Build an ICMP echo request/reply.
[[nodiscard]] Packet makeIcmpEcho(Ipv4Address src, Ipv4Address dst, bool isReply,
                                  std::uint16_t id, std::uint16_t sequence,
                                  util::Bytes payload = {});

/// Build an ICMP error (dest-unreachable / time-exceeded) about
/// `offending`; the payload carries the offending datagram's IP header
/// plus the first 8 bytes of its L4 data, per RFC 792.
[[nodiscard]] Packet makeIcmpError(Ipv4Address routerAddress, std::uint8_t type,
                                   std::uint8_t code, const Packet& offending);

/// Parse the original-datagram headers embedded in an ICMP error
/// payload (enough of them to identify the flow: addresses, protocol,
/// and for UDP and TCP the ports).
struct EmbeddedDatagram {
    Ipv4Address src;
    Ipv4Address dst;
    IpProto protocol = IpProto::udp;
    std::uint16_t srcPort = 0;
    std::uint16_t dstPort = 0;
};
[[nodiscard]] util::Result<EmbeddedDatagram> parseIcmpErrorPayload(util::ByteView payload);

}  // namespace onelab::net

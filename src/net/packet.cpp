#include "net/packet.hpp"

#include "util/strings.hpp"

namespace onelab::net {

namespace {
constexpr std::size_t kIpHeaderSize = 20;
constexpr std::size_t kUdpHeaderSize = 8;
constexpr std::size_t kIcmpHeaderSize = 8;
constexpr std::size_t kTcpHeaderSize = 20;

std::size_t l4HeaderSize(IpProto protocol) noexcept {
    switch (protocol) {
        case IpProto::udp: return kUdpHeaderSize;
        case IpProto::tcp: return kTcpHeaderSize;
        case IpProto::icmp: return kIcmpHeaderSize;
    }
    return kIcmpHeaderSize;
}
}  // namespace

std::size_t Packet::wireSize() const noexcept {
    return kIpHeaderSize + l4HeaderSize(ip.protocol) + payload.size();
}

util::Bytes Packet::serialize() const {
    util::Bytes out;
    out.reserve(wireSize());

    // IPv4 header.
    util::putU8(out, 0x45);  // version 4, IHL 5
    util::putU8(out, ip.tos);
    util::putU16(out, std::uint16_t(wireSize()));
    util::putU16(out, ip.identification);
    util::putU16(out, 0);  // flags/fragment offset: never fragmented here
    util::putU8(out, ip.ttl);
    util::putU8(out, std::uint8_t(ip.protocol));
    util::putU16(out, 0);  // checksum placeholder
    util::putU32(out, ip.src.value());
    util::putU32(out, ip.dst.value());
    const std::uint16_t ipSum = util::internetChecksum({out.data(), kIpHeaderSize});
    out[10] = std::uint8_t(ipSum >> 8);
    out[11] = std::uint8_t(ipSum);

    if (ip.protocol == IpProto::udp) {
        util::putU16(out, udp.srcPort);
        util::putU16(out, udp.dstPort);
        util::putU16(out, std::uint16_t(kUdpHeaderSize + payload.size()));
        util::putU16(out, 0);  // UDP checksum optional over IPv4
    } else if (ip.protocol == IpProto::tcp) {
        util::putU16(out, tcp.srcPort);
        util::putU16(out, tcp.dstPort);
        util::putU32(out, tcp.seq);
        util::putU32(out, tcp.ackNumber);
        util::putU8(out, 5 << 4);  // data offset 5 words, no options
        util::putU8(out, tcp.flags);
        util::putU16(out, tcp.window);
        util::putU16(out, 0);  // checksum (link layers are reliable here)
        util::putU16(out, 0);  // urgent pointer
    } else {
        const std::size_t icmpStart = out.size();
        util::putU8(out, icmp.type);
        util::putU8(out, icmp.code);
        util::putU16(out, 0);  // checksum placeholder
        util::putU16(out, icmp.id);
        util::putU16(out, icmp.sequence);
        // ICMP checksum covers header + payload; compute over header
        // with payload appended below, so patch afterwards.
        util::putBytes(out, payload);
        const std::uint16_t icmpSum =
            util::internetChecksum({out.data() + icmpStart, out.size() - icmpStart});
        out[icmpStart + 2] = std::uint8_t(icmpSum >> 8);
        out[icmpStart + 3] = std::uint8_t(icmpSum);
        return out;
    }

    util::putBytes(out, payload);
    return out;
}

util::Result<Packet> Packet::parse(util::ByteView data) {
    util::ByteReader reader{data};
    const std::uint8_t versionIhl = reader.u8();
    if ((versionIhl >> 4) != 4)
        return util::err(util::Error::Code::protocol, "not an IPv4 datagram");
    const std::size_t ihl = std::size_t(versionIhl & 0x0f) * 4;
    if (ihl != kIpHeaderSize)
        return util::err(util::Error::Code::protocol, "IP options unsupported");
    Packet pkt;
    pkt.ip.tos = reader.u8();
    const std::uint16_t totalLength = reader.u16();
    pkt.ip.identification = reader.u16();
    reader.u16();  // flags/frag
    pkt.ip.ttl = reader.u8();
    pkt.ip.protocol = IpProto{reader.u8()};
    reader.u16();  // checksum (validated over the whole header below)
    pkt.ip.src = Ipv4Address{reader.u32()};
    pkt.ip.dst = Ipv4Address{reader.u32()};
    if (!reader.ok() || data.size() < totalLength || totalLength < kIpHeaderSize)
        return util::err(util::Error::Code::protocol, "truncated IP datagram");
    if (util::internetChecksum({data.data(), kIpHeaderSize}) != 0)
        return util::err(util::Error::Code::protocol, "bad IP header checksum");

    if (pkt.ip.protocol == IpProto::udp) {
        pkt.udp.srcPort = reader.u16();
        pkt.udp.dstPort = reader.u16();
        const std::uint16_t udpLength = reader.u16();
        reader.u16();  // checksum (zero = unused)
        if (!reader.ok() || udpLength < kUdpHeaderSize ||
            totalLength != kIpHeaderSize + udpLength)
            return util::err(util::Error::Code::protocol, "bad UDP length");
        pkt.payload = reader.bytes(udpLength - kUdpHeaderSize);
    } else if (pkt.ip.protocol == IpProto::tcp) {
        pkt.tcp.srcPort = reader.u16();
        pkt.tcp.dstPort = reader.u16();
        pkt.tcp.seq = reader.u32();
        pkt.tcp.ackNumber = reader.u32();
        const std::uint8_t dataOffset = reader.u8() >> 4;
        pkt.tcp.flags = reader.u8();
        pkt.tcp.window = reader.u16();
        reader.u16();  // checksum
        reader.u16();  // urgent
        if (!reader.ok() || dataOffset < 5 ||
            totalLength < kIpHeaderSize + std::size_t(dataOffset) * 4)
            return util::err(util::Error::Code::protocol, "bad TCP header");
        reader.skip((std::size_t(dataOffset) - 5) * 4);  // options (ignored)
        pkt.payload =
            reader.bytes(totalLength - kIpHeaderSize - std::size_t(dataOffset) * 4);
    } else if (pkt.ip.protocol == IpProto::icmp) {
        pkt.icmp.type = reader.u8();
        pkt.icmp.code = reader.u8();
        reader.u16();  // checksum
        pkt.icmp.id = reader.u16();
        pkt.icmp.sequence = reader.u16();
        pkt.payload = reader.bytes(totalLength - kIpHeaderSize - kIcmpHeaderSize);
    } else {
        return util::err(util::Error::Code::unsupported,
                         "unsupported IP protocol " + std::to_string(int(pkt.ip.protocol)));
    }
    if (!reader.ok()) return util::err(util::Error::Code::protocol, "truncated L4 payload");
    return pkt;
}

Packet makeTcpSegment(Ipv4Address src, std::uint16_t srcPort, Ipv4Address dst,
                      std::uint16_t dstPort, const TcpHeader& header, util::Bytes payload) {
    Packet pkt;
    pkt.ip.src = src;
    pkt.ip.dst = dst;
    pkt.ip.protocol = IpProto::tcp;
    pkt.tcp = header;
    pkt.tcp.srcPort = srcPort;
    pkt.tcp.dstPort = dstPort;
    pkt.payload = std::move(payload);
    return pkt;
}

std::string Packet::describe() const {
    if (ip.protocol == IpProto::tcp)
        return util::format("TCP %s:%u > %s:%u seq=%u ack=%u flags=0x%02x len=%zu",
                            ip.src.str().c_str(), tcp.srcPort, ip.dst.str().c_str(),
                            tcp.dstPort, tcp.seq, tcp.ackNumber, tcp.flags, payload.size());
    if (ip.protocol == IpProto::udp)
        return util::format("UDP %s:%u > %s:%u len=%zu mark=%u xid=%d", ip.src.str().c_str(),
                            udp.srcPort, ip.dst.str().c_str(), udp.dstPort, payload.size(),
                            fwmark, sliceXid);
    return util::format("ICMP type=%u %s > %s seq=%u", icmp.type, ip.src.str().c_str(),
                        ip.dst.str().c_str(), icmp.sequence);
}

Packet makeUdpPacket(Ipv4Address src, std::uint16_t srcPort, Ipv4Address dst,
                     std::uint16_t dstPort, util::Bytes payload) {
    Packet pkt;
    pkt.ip.src = src;
    pkt.ip.dst = dst;
    pkt.ip.protocol = IpProto::udp;
    pkt.udp.srcPort = srcPort;
    pkt.udp.dstPort = dstPort;
    pkt.payload = std::move(payload);
    return pkt;
}

Packet makeIcmpError(Ipv4Address routerAddress, std::uint8_t type, std::uint8_t code,
                     const Packet& offending) {
    Packet pkt;
    pkt.ip.src = routerAddress;
    pkt.ip.dst = offending.ip.src;
    pkt.ip.protocol = IpProto::icmp;
    pkt.icmp.type = type;
    pkt.icmp.code = code;
    pkt.icmp.id = 0;
    pkt.icmp.sequence = 0;
    // RFC 792: IP header + first 8 bytes of the offending datagram.
    const util::Bytes wire = offending.serialize();
    const std::size_t take = std::min<std::size_t>(wire.size(), kIpHeaderSize + 8);
    pkt.payload.assign(wire.begin(), wire.begin() + long(take));
    return pkt;
}

util::Result<EmbeddedDatagram> parseIcmpErrorPayload(util::ByteView payload) {
    if (payload.size() < kIpHeaderSize)
        return util::err(util::Error::Code::protocol, "ICMP error payload too short");
    util::ByteReader reader{payload};
    const std::uint8_t versionIhl = reader.u8();
    if ((versionIhl >> 4) != 4)
        return util::err(util::Error::Code::protocol, "embedded datagram not IPv4");
    reader.skip(8);  // tos, length, id, frag, ttl
    EmbeddedDatagram embedded;
    embedded.protocol = IpProto{reader.u8()};
    reader.u16();  // checksum
    embedded.src = Ipv4Address{reader.u32()};
    embedded.dst = Ipv4Address{reader.u32()};
    // UDP and TCP headers both open with the source and destination ports.
    if ((embedded.protocol == IpProto::udp || embedded.protocol == IpProto::tcp) &&
        reader.remaining() >= 4) {
        embedded.srcPort = reader.u16();
        embedded.dstPort = reader.u16();
    }
    if (!reader.ok())
        return util::err(util::Error::Code::protocol, "truncated embedded datagram");
    return embedded;
}

Packet makeIcmpEcho(Ipv4Address src, Ipv4Address dst, bool isReply, std::uint16_t id,
                    std::uint16_t sequence, util::Bytes payload) {
    Packet pkt;
    pkt.ip.src = src;
    pkt.ip.dst = dst;
    pkt.ip.protocol = IpProto::icmp;
    pkt.icmp.type = isReply ? 0 : 8;
    pkt.icmp.id = id;
    pkt.icmp.sequence = sequence;
    pkt.payload = std::move(payload);
    return pkt;
}

}  // namespace onelab::net

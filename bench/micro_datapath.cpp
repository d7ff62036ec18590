// Microbenchmarks of the node data path. Two families:
//
//  - Packet path: policy routing resolution, netfilter traversal, and
//    the full send path with the paper's isolation rule set installed
//    (the per-packet cost of the umts command's policy); the operator
//    firewall's check on an established flow; the modem's data-mode
//    "+++" escape scan over the chunk shapes that reach it.
//
//  - Framed byte path: HDLC encode/deframe goodput of the vectorized
//    framer (bulk run scan + fused FCS) against an in-file replica of
//    the previous byte-at-a-time implementation, at 64/512/1500-byte
//    MTUs across escape-light/escape-heavy payloads and ACCM 0x0 vs
//    0xffffffff, plus the full pipe->framer->deframer goodput loop on
//    pooled zero-copy slices.
//
// Before any benchmark runs, main() executes a differential self-check
// (fast vs reference round trips); a mismatch fails the binary, so the
// CI smoke invocation doubles as an integrity gate.
//
// Usage: micro_datapath [google-benchmark flags] [--json [path]]
//   --json   after the run, write a machine-readable summary (every
//            benchmark's throughput plus fast-vs-reference speedups)
//            to `path`, default BENCH_datapath.json.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "ditg/flow.hpp"
#include "modem/at_engine.hpp"
#include "net/internet.hpp"
#include "net/stack.hpp"
#include "ppp/fcs.hpp"
#include "ppp/framer.hpp"
#include "sim/pipe.hpp"
#include "sim/simulator.hpp"
#include "umts/network.hpp"
#include "util/rand.hpp"
#include "util/strings.hpp"

namespace {

using namespace onelab;

// ---------------------------------------------------------------------------
// Packet path
// ---------------------------------------------------------------------------

void BM_PolicyRoutingResolve(benchmark::State& state) {
    net::PolicyRouter router;
    router.table(net::PolicyRouter::kMainTable)
        .addRoute({net::Prefix::any(), "eth0", std::nullopt, 0});
    router.table(100).addRoute({net::Prefix::any(), "ppp0", std::nullopt, 0});
    // state.range(0) destination rules, like N `umts add destination`s.
    for (int i = 0; i < state.range(0); ++i) {
        net::PolicyRule rule;
        rule.priority = 1001;
        rule.fwmark = 100;
        rule.dstSelector = net::Prefix::host(net::Ipv4Address{std::uint32_t(0x8a000000 + i)});
        rule.tableId = 100;
        router.addRule(rule);
    }
    net::Packet pkt = net::makeUdpPacket({}, 1, net::Ipv4Address{8, 8, 8, 8}, 2, {});
    pkt.fwmark = 100;
    for (auto _ : state) benchmark::DoNotOptimize(router.resolve(pkt).ok());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PolicyRoutingResolve)->Arg(0)->Arg(2)->Arg(16)->Arg(128);

void BM_NetfilterChain(benchmark::State& state) {
    net::Netfilter nf;
    for (int i = 0; i < state.range(0); ++i) {
        net::FilterRule rule;
        rule.match.sliceXid = 1000 + i;  // never matches
        rule.target.kind = net::FilterTarget::Kind::drop;
        nf.append(net::ChainHook::filter_output, rule);
    }
    net::Packet pkt = net::makeUdpPacket({}, 1, net::Ipv4Address{8, 8, 8, 8}, 2, {});
    pkt.sliceXid = 1;
    for (auto _ : state)
        benchmark::DoNotOptimize(nf.runChain(net::ChainHook::filter_output, pkt, "eth0"));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetfilterChain)->Arg(1)->Arg(8)->Arg(64);

/// Full send path with and without the umts isolation rules — the
/// cost the extension adds to every transmitted packet.
void BM_SendPathIsolationRules(benchmark::State& state) {
    sim::Simulator sim;
    net::NetworkStack stack{sim, "bench"};
    net::Interface& eth = stack.addInterface("eth0");
    eth.setAddress(net::Ipv4Address{10, 0, 0, 1});
    eth.setUp(true);
    eth.setTxHandler([](net::Packet) {});
    net::Interface& ppp = stack.addInterface("ppp0");
    ppp.setAddress(net::Ipv4Address{93, 57, 0, 16});
    ppp.setUp(true);
    ppp.setTxHandler([](net::Packet) {});
    stack.router().table(net::PolicyRouter::kMainTable)
        .addRoute({net::Prefix::any(), "eth0", std::nullopt, 0});

    if (state.range(0) != 0) {
        // The exact §2.3 rule set.
        net::FilterRule mark;
        mark.match.sliceXid = 100;
        mark.target = {net::FilterTarget::Kind::mark, 100};
        stack.netfilter().append(net::ChainHook::mangle_output, mark);
        net::FilterRule drop;
        drop.match.outInterface = "ppp0";
        drop.match.sliceXid = 100;
        drop.match.negateSlice = true;
        drop.target.kind = net::FilterTarget::Kind::drop;
        stack.netfilter().append(net::ChainHook::filter_output, drop);
        stack.router().table(100).addRoute({net::Prefix::any(), "ppp0", std::nullopt, 0});
        net::PolicyRule rule;
        rule.priority = 1000;
        rule.fwmark = 100;
        rule.srcSelector = net::Prefix::host(net::Ipv4Address{93, 57, 0, 16});
        rule.tableId = 100;
        stack.router().addRule(rule);
    }

    auto socket = stack.openUdp(101).value();  // a non-owner slice
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            socket->sendTo(net::Ipv4Address{8, 8, 8, 8}, 53, util::Bytes(64, 0)).ok());
    }
    state.SetItemsProcessed(state.iterations());
    state.SetLabel(state.range(0) ? "isolation rules installed" : "bare stack");
}
BENCHMARK(BM_SendPathIsolationRules)->Arg(0)->Arg(1);

/// The operator's stateful firewall on an established UDP flow, per
/// packet: arg 0 a reply arriving from the Internet, arg 1 the
/// subscriber's next outbound packet refreshing the flow.
void BM_FirewallForward(benchmark::State& state) {
    sim::Simulator sim;
    net::Internet internet{sim, util::RandomStream{5}};
    umts::UmtsNetwork network{sim, internet, umts::commercialItalianOperator(),
                              util::RandomStream{6}};
    const net::Ipv4Address subscriber{10, 47, 0, 16};
    const net::Ipv4Address server{138, 96, 250, 20};
    const net::Packet outbound = net::makeUdpPacket(subscriber, 5000, server, 9001, {});
    const net::Packet reply = net::makeUdpPacket(server, 9001, subscriber, 5000, {});
    const std::string pdp = "pdp1";
    const std::string wan = "wan";
    (void)network.forwardAllowed(outbound, pdp);
    const bool inbound = state.range(0) == 0;
    const net::Packet& pkt = inbound ? reply : outbound;
    const std::string& iif = inbound ? wan : pdp;
    for (auto _ : state) benchmark::DoNotOptimize(network.forwardAllowed(pkt, iif));
    state.SetItemsProcessed(state.iterations());
    state.SetLabel(inbound ? "inbound reply" : "outbound refresh");
}
BENCHMARK(BM_FirewallForward)->Arg(0)->Arg(1);

/// Device side of a TTY that hands each chunk straight to the AT
/// engine's receive callback, so the bench times the engine alone.
class DirectTty final : public sim::ByteChannel {
  public:
    void write(util::ByteView) override {}
    void onData(std::function<void(util::ByteView)>) override {}
    void onDataShared(std::function<void(util::SharedBytes)> handler) override {
        deliver = std::move(handler);
    }
    std::function<void(util::SharedBytes)> deliver;
};

/// One chunk as the modem's data mode receives it from the host.
util::Bytes escapeScanChunk(std::int64_t shape) {
    switch (shape) {
        case 0:
            return util::Bytes(1500, 'x');
        case 1:
            // at_abuser's escape spam: a '+' run with no guard silence.
            return util::Bytes(9, '+');
        case 2: {
            // at_abuser's line noise: 24 bytes drawn from 1..255.
            util::RandomStream rng{11};
            util::Bytes noise(24);
            for (std::uint8_t& byte : noise) byte = std::uint8_t(rng.uniformInt(1, 255));
            return noise;
        }
        default: {
            // pppd's HDLC frame of one D-ITG probe: the paper's 1 Mbps
            // CBR (1024 B payload) or G.711 VoIP (90 B payload).
            ditg::ProbeHeader header;
            header.flowId = 1;
            header.sequence = 4242;
            header.txTimeNs = 61'234'567'890;
            const std::size_t payload = shape == 3 ? 1024 : 90;
            const net::Packet pkt = net::makeUdpPacket({10, 47, 0, 16}, 8999, {138, 96, 250, 20},
                                                       9000, header.encode(payload));
            return ppp::encodeFrame({ppp::Protocol::ip, pkt.serialize()}, ppp::FramerConfig{});
        }
    }
}

/// The data-mode escape scan over the chunk shapes that reach it: a
/// 1500-byte chunk with no '+', at_abuser's 9-'+' spam and 24-byte
/// noise payloads, and PPP-framed D-ITG CBR and VoIP packets.
/// Simulated time stands still, so no guard silence ever arms the
/// escape.
void BM_AtEscapeScan(benchmark::State& state) {
    static const char* const kLabels[] = {"1500 B, no '+'", "at_abuser +++ spam",
                                          "at_abuser noise", "PPP CBR 1024 B", "PPP VoIP 90 B"};
    sim::Simulator sim;
    DirectTty tty;
    modem::AtEngine engine{sim, "bench"};
    engine.attachTty(tty);
    engine.enterDataModeShared([](const util::SharedBytes&) {});
    const util::Bytes chunk = escapeScanChunk(state.range(0));
    const util::SharedBytes shared = util::SharedBytes::copy({chunk.data(), chunk.size()});
    for (auto _ : state) tty.deliver(shared);
    state.SetBytesProcessed(std::int64_t(state.iterations()) * std::int64_t(chunk.size()));
    state.SetItemsProcessed(state.iterations());
    state.SetLabel(kLabels[state.range(0)]);
}
BENCHMARK(BM_AtEscapeScan)->DenseRange(0, 4);

// ---------------------------------------------------------------------------
// Framed byte path: reference (pre-vectorization) framer, kept here as
// the measurement baseline after the real one was replaced.
// ---------------------------------------------------------------------------

constexpr std::uint8_t kFlag = 0x7e;
constexpr std::uint8_t kEscape = 0x7d;
constexpr std::uint8_t kXor = 0x20;
constexpr std::uint8_t kAddress = 0xff;
constexpr std::uint8_t kControl = 0x03;

/// The pre-vectorization FCS: one table lookup per byte (the current
/// ppp::fcs16 walks slice-by-8 tables, so calling it here would credit
/// the reference with half of this PR's optimization).
std::uint16_t fcs16Reference(util::ByteView data) noexcept {
    const auto& table = ppp::fcsTables()[0];
    std::uint16_t fcs = ppp::kFcsInit;
    for (const std::uint8_t byte : data)
        fcs = std::uint16_t((fcs >> 8) ^ table[(fcs ^ byte) & 0xff]);
    return fcs;
}

bool needsEscapeReference(std::uint8_t byte, std::uint32_t accm) noexcept {
    if (byte == kFlag || byte == kEscape) return true;
    return byte < 0x20 && ((accm >> byte) & 1u);
}

void putEscapedReference(util::Bytes& out, std::uint8_t byte, std::uint32_t accm) {
    if (needsEscapeReference(byte, accm)) {
        out.push_back(kEscape);
        out.push_back(byte ^ kXor);
    } else {
        out.push_back(byte);
    }
}

util::Bytes encodeFrameReference(const ppp::Frame& frame, const ppp::FramerConfig& config) {
    util::Bytes raw;
    raw.reserve(frame.info.size() + 6);
    if (!config.compressAddressControl) {
        raw.push_back(kAddress);
        raw.push_back(kControl);
    }
    const auto protocol = std::uint16_t(frame.protocol);
    if (config.compressProtocolField && protocol <= 0xff) {
        raw.push_back(std::uint8_t(protocol));
    } else {
        raw.push_back(std::uint8_t(protocol >> 8));
        raw.push_back(std::uint8_t(protocol));
    }
    raw.insert(raw.end(), frame.info.begin(), frame.info.end());

    const auto fcs = std::uint16_t(~fcs16Reference(raw) & 0xffff);

    util::Bytes out;
    out.reserve(raw.size() + 8);
    out.push_back(kFlag);
    for (const std::uint8_t byte : raw) putEscapedReference(out, byte, config.sendAccm);
    putEscapedReference(out, std::uint8_t(fcs & 0xff), config.sendAccm);
    putEscapedReference(out, std::uint8_t(fcs >> 8), config.sendAccm);
    out.push_back(kFlag);
    return out;
}

/// Byte-at-a-time deframer baseline (counters + payload only).
class DeframerReference {
  public:
    void feed(util::ByteView data) {
        for (const std::uint8_t byte : data) {
            if (byte == kFlag) {
                escaped_ = false;
                endFrame();
                continue;
            }
            if (byte == kEscape) {
                escaped_ = true;
                continue;
            }
            current_.push_back(escaped_ ? std::uint8_t(byte ^ kXor) : byte);
            escaped_ = false;
        }
    }

    std::uint64_t good = 0;
    std::uint64_t bad = 0;
    std::uint64_t payloadBytes = 0;

  private:
    void endFrame() {
        if (current_.empty()) return;
        util::Bytes raw;
        raw.swap(current_);
        if (raw.size() < 3 || fcs16Reference(raw) != ppp::kFcsGood) {
            ++bad;
            return;
        }
        ++good;
        payloadBytes += raw.size() - 2;
    }

    util::Bytes current_;
    bool escaped_ = false;
};

// ---------------------------------------------------------------------------
// Payload profiles: {escape-light, escape-heavy} x {ACCM 0, 0xffffffff}.
// ---------------------------------------------------------------------------

struct WireProfile {
    const char* name;
    std::uint32_t accm;
    bool heavy;  ///< payload stuffed with flag/escape/control bytes
};

constexpr WireProfile kProfiles[] = {
    {"light_accm0", 0x00000000u, false},
    {"light_accmff", 0xffffffffu, false},
    {"heavy_accm0", 0x00000000u, true},
    {"heavy_accmff", 0xffffffffu, true},
};

util::Bytes makePayload(std::size_t size, bool heavy) {
    util::Bytes payload(size);
    for (std::size_t i = 0; i < size; ++i) {
        if (heavy) {
            // Escape-dense mix: flags, escapes and control chars (the
            // control chars only escape under ACCM 0xffffffff).
            static constexpr std::uint8_t kNasty[] = {kFlag, kEscape, 0x11, 0x13,
                                                      0x00,  0x42,    0x7c, 0x1f};
            payload[i] = kNasty[i % 8];
        } else {
            payload[i] = std::uint8_t(0x20 + (i * 7) % 0x5e);  // printable, no specials
        }
    }
    return payload;
}

ppp::FramerConfig configFor(const WireProfile& profile) {
    ppp::FramerConfig config;
    config.sendAccm = profile.accm;
    return config;
}

// ---------------------------------------------------------------------------
// HDLC encode: fast vs reference.
// ---------------------------------------------------------------------------

void BM_HdlcEncode(benchmark::State& state) {
    const WireProfile& profile = kProfiles[std::size_t(state.range(1))];
    const ppp::FramerConfig config = configFor(profile);
    const ppp::Frame frame{ppp::Protocol::ip,
                           makePayload(std::size_t(state.range(0)), profile.heavy)};
    util::Bytes out;
    std::uint64_t wireBytes = 0;
    for (auto _ : state) {
        ppp::encodeFrameInto(frame.protocol, {frame.info.data(), frame.info.size()}, config,
                             out);
        benchmark::DoNotOptimize(out.data());
        wireBytes += out.size();
    }
    state.SetItemsProcessed(state.iterations());  // frames/s
    state.SetBytesProcessed(std::int64_t(state.iterations()) * state.range(0));
    state.SetLabel(profile.name);
    benchmark::DoNotOptimize(wireBytes);
}

void BM_HdlcEncodeReference(benchmark::State& state) {
    const WireProfile& profile = kProfiles[std::size_t(state.range(1))];
    const ppp::FramerConfig config = configFor(profile);
    const ppp::Frame frame{ppp::Protocol::ip,
                           makePayload(std::size_t(state.range(0)), profile.heavy)};
    std::uint64_t wireBytes = 0;
    for (auto _ : state) {
        const util::Bytes out = encodeFrameReference(frame, config);
        benchmark::DoNotOptimize(out.data());
        wireBytes += out.size();
    }
    state.SetItemsProcessed(state.iterations());
    state.SetBytesProcessed(std::int64_t(state.iterations()) * state.range(0));
    state.SetLabel(profile.name);
    benchmark::DoNotOptimize(wireBytes);
}

// ---------------------------------------------------------------------------
// HDLC deframe: fast vs reference, fed the same pre-encoded wire.
// ---------------------------------------------------------------------------

void BM_HdlcDeframe(benchmark::State& state) {
    const WireProfile& profile = kProfiles[std::size_t(state.range(1))];
    const ppp::Frame frame{ppp::Protocol::ip,
                           makePayload(std::size_t(state.range(0)), profile.heavy)};
    const util::Bytes wire = ppp::encodeFrame(frame, configFor(profile));
    ppp::Deframer deframer;
    std::uint64_t payloadBytes = 0;
    deframer.onFrame([&](ppp::Frame got) { payloadBytes += got.info.size(); });
    for (auto _ : state) deframer.feed({wire.data(), wire.size()});
    if (deframer.goodFrames() != std::uint64_t(state.iterations()))
        state.SkipWithError("deframe round-trip mismatch");
    state.SetItemsProcessed(state.iterations());
    state.SetBytesProcessed(std::int64_t(payloadBytes));
    state.SetLabel(profile.name);
}

void BM_HdlcDeframeReference(benchmark::State& state) {
    const WireProfile& profile = kProfiles[std::size_t(state.range(1))];
    const ppp::Frame frame{ppp::Protocol::ip,
                           makePayload(std::size_t(state.range(0)), profile.heavy)};
    const util::Bytes wire = ppp::encodeFrame(frame, configFor(profile));
    DeframerReference deframer;
    for (auto _ : state) deframer.feed({wire.data(), wire.size()});
    if (deframer.good != std::uint64_t(state.iterations()))
        state.SkipWithError("reference deframe round-trip mismatch");
    state.SetItemsProcessed(state.iterations());
    state.SetBytesProcessed(std::int64_t(deframer.payloadBytes));
    state.SetLabel(profile.name);
}

void framedArgs(benchmark::internal::Benchmark* bench) {
    for (const int size : {64, 512, 1500})
        for (int profile = 0; profile < 4; ++profile) bench->Args({size, profile});
}

BENCHMARK(BM_HdlcEncode)->Apply(framedArgs);
BENCHMARK(BM_HdlcEncodeReference)->Apply(framedArgs);
BENCHMARK(BM_HdlcDeframe)->Apply(framedArgs);
BENCHMARK(BM_HdlcDeframeReference)->Apply(framedArgs);

// ---------------------------------------------------------------------------
// Full framed goodput loop: encode into a pooled buffer, hand the
// refcounted slice through a sim::Pipe, deframe at the far end — the
// exact pppd->TTY->pppd byte path, zero-copy between the stages.
// ---------------------------------------------------------------------------

void BM_FramedPipeGoodput(benchmark::State& state) {
    const WireProfile& profile = kProfiles[std::size_t(state.range(1))];
    const ppp::FramerConfig config = configFor(profile);
    const util::Bytes payload = makePayload(std::size_t(state.range(0)), profile.heavy);

    sim::Simulator sim;
    sim::Pipe pipe{sim, sim::millis(1)};
    ppp::Deframer deframer;
    std::uint64_t payloadBytes = 0;
    deframer.onFrame([&](ppp::Frame got) { payloadBytes += got.info.size(); });
    pipe.b().onData([&](util::ByteView data) { deframer.feed(data); });

    constexpr int kFramesPerBatch = 4;
    for (auto _ : state) {
        for (int i = 0; i < kFramesPerBatch; ++i) {
            util::Bytes wire = sim.bufferPool().acquire(std::size_t{0});
            ppp::encodeFrameInto(ppp::Protocol::ip, {payload.data(), payload.size()},
                                 config, wire);
            pipe.a().write(sim.bufferPool().share(std::move(wire)));
        }
        sim.run();
    }
    const auto expected = std::uint64_t(state.iterations()) * kFramesPerBatch;
    if (deframer.goodFrames() != expected || deframer.badFrames() != 0)
        state.SkipWithError("framed pipe round-trip mismatch");
    state.SetItemsProcessed(std::int64_t(expected));
    state.SetBytesProcessed(std::int64_t(payloadBytes));
    state.SetLabel(profile.name);
}
BENCHMARK(BM_FramedPipeGoodput)->Args({1500, 0})->Args({1500, 3})->Args({512, 0});

// ---------------------------------------------------------------------------
// Differential self-check, run before any benchmark: the fast framer
// must agree with the reference byte-for-byte across the benched
// profiles. Failure exits non-zero, so the CI smoke run gates on it.
// ---------------------------------------------------------------------------

bool selfCheck() {
    for (const WireProfile& profile : kProfiles) {
        const ppp::FramerConfig config = configFor(profile);
        for (const std::size_t size : {std::size_t{0}, std::size_t{1}, std::size_t{64},
                                       std::size_t{512}, std::size_t{1500}}) {
            const ppp::Frame frame{ppp::Protocol::ip, makePayload(size, profile.heavy)};
            const util::Bytes fast = ppp::encodeFrame(frame, config);
            const util::Bytes reference = encodeFrameReference(frame, config);
            if (fast != reference) {
                std::fprintf(stderr, "self-check: encode mismatch (%s, %zu bytes)\n",
                             profile.name, size);
                return false;
            }
            ppp::Deframer deframer;
            util::Bytes decoded;
            deframer.onFrame([&](ppp::Frame got) { decoded = std::move(got.info); });
            deframer.feed({fast.data(), fast.size()});
            if (deframer.goodFrames() != 1 || decoded != frame.info) {
                std::fprintf(stderr, "self-check: round-trip mismatch (%s, %zu bytes)\n",
                             profile.name, size);
                return false;
            }
        }
    }
    return true;
}

// ---------------------------------------------------------------------------
// --json reporting
// ---------------------------------------------------------------------------

/// Console output as usual, plus a copy of every per-iteration run for
/// the JSON summary.
class CollectingReporter final : public benchmark::ConsoleReporter {
  public:
    void ReportRuns(const std::vector<Run>& runs) override {
        for (const Run& run : runs)
            if (run.run_type == Run::RT_Iteration && !run.error_occurred)
                collected_.push_back(run);
        ConsoleReporter::ReportRuns(runs);
    }

    [[nodiscard]] const std::vector<Run>& runs() const noexcept { return collected_; }

  private:
    std::vector<Run> collected_;
};

double counterValue(const benchmark::BenchmarkReporter::Run& run, const char* name) {
    const auto it = run.counters.find(name);
    return it == run.counters.end() ? 0.0 : double(it->second);
}

/// Throughput of the run whose full name starts with `prefix` (0 when
/// absent, e.g. under a --benchmark_filter that skipped it).
double throughputFor(const std::vector<benchmark::BenchmarkReporter::Run>& runs,
                     const std::string& prefix, const char* counter) {
    for (const auto& run : runs) {
        const std::string name = run.benchmark_name();
        if (name.rfind(prefix, 0) == 0) return counterValue(run, counter);
    }
    return 0.0;
}

double ratio(double fast, double reference) {
    return reference > 0.0 ? fast / reference : 0.0;
}

bool writeJson(const std::string& path,
               const std::vector<benchmark::BenchmarkReporter::Run>& runs) {
    // Headline: 1500-byte escape-light frames (the steady-state MTU
    // shape of the paper's CBR experiments), fast vs reference, for
    // encode, deframe, and the two stages combined.
    const double encodeFast =
        throughputFor(runs, "BM_HdlcEncode/1500/0", "items_per_second");
    const double encodeRef =
        throughputFor(runs, "BM_HdlcEncodeReference/1500/0", "items_per_second");
    const double deframeFast =
        throughputFor(runs, "BM_HdlcDeframe/1500/0", "items_per_second");
    const double deframeRef =
        throughputFor(runs, "BM_HdlcDeframeReference/1500/0", "items_per_second");
    const double heavyEncodeFast =
        throughputFor(runs, "BM_HdlcEncode/1500/3", "items_per_second");
    const double heavyEncodeRef =
        throughputFor(runs, "BM_HdlcEncodeReference/1500/3", "items_per_second");
    // Frames/s of one encode+deframe stage pair (series composition:
    // rates combine like resistors in parallel).
    const double pairFast = (encodeFast > 0.0 && deframeFast > 0.0)
                                ? 1.0 / (1.0 / encodeFast + 1.0 / deframeFast)
                                : 0.0;
    const double pairRef = (encodeRef > 0.0 && deframeRef > 0.0)
                               ? 1.0 / (1.0 / encodeRef + 1.0 / deframeRef)
                               : 0.0;

    std::ofstream out{path, std::ios::trunc};
    if (!out) return false;
    out << "{\"benchmark\":\"micro_datapath\",\"results\":[";
    bool first = true;
    for (const auto& run : runs) {
        if (!first) out << ',';
        first = false;
        out << "{\"name\":\"" << run.benchmark_name() << "\""
            << ",\"real_time_ns\":"
            << onelab::util::format("%.1f", run.GetAdjustedRealTime())
            << ",\"items_per_second\":"
            << onelab::util::format("%.1f", counterValue(run, "items_per_second"))
            << ",\"bytes_per_second\":"
            << onelab::util::format("%.1f", counterValue(run, "bytes_per_second"))
            << '}';
    }
    out << "],\"speedup\":{";
    out << "\"encode_1500_light_vs_reference\":"
        << onelab::util::format("%.2f", ratio(encodeFast, encodeRef));
    out << ",\"deframe_1500_light_vs_reference\":"
        << onelab::util::format("%.2f", ratio(deframeFast, deframeRef));
    out << ",\"encode_deframe_1500_light_vs_reference\":"
        << onelab::util::format("%.2f", ratio(pairFast, pairRef));
    out << ",\"encode_1500_heavy_vs_reference\":"
        << onelab::util::format("%.2f", ratio(heavyEncodeFast, heavyEncodeRef));
    out << "}}\n";
    return bool(out);
}

}  // namespace

int main(int argc, char** argv) {
    if (!selfCheck()) return 1;

    // Peel off --json [path] before google-benchmark sees the args.
    std::string jsonPath;
    std::vector<char*> args;
    for (int i = 0; i < argc; ++i) {
        if (i > 0 && std::strcmp(argv[i], "--json") == 0) {
            jsonPath = "BENCH_datapath.json";
            if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
                jsonPath = argv[++i];
            continue;
        }
        args.push_back(argv[i]);
    }
    int filteredArgc = int(args.size());
    benchmark::Initialize(&filteredArgc, args.data());
    if (benchmark::ReportUnrecognizedArguments(filteredArgc, args.data())) return 1;

    CollectingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    if (!jsonPath.empty()) {
        if (!writeJson(jsonPath, reporter.runs())) {
            std::fprintf(stderr, "failed to write %s\n", jsonPath.c_str());
            return 1;
        }
        std::printf("JSON summary written to %s\n", jsonPath.c_str());
    }
    return 0;
}

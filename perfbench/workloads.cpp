// The three workloads. Each is a closed loop: the next unit starts only
// after the previous one returned. Each fixes only its inputs (UE
// count, traffic, fault plan, seed); the engine choice (shards, jobs)
// is left to the program's defaults.
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <regex>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "figure_common.hpp"
#include "obs/run_context.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "ppp/lcp.hpp"
#include "scenario/experiment.hpp"
#include "scenario/fleet.hpp"
#include "util/md5.hpp"

namespace perfbench {

using namespace onelab;

namespace {

struct Ctx {
    Pass& pass;
    const PassConfig& config;
};

struct PhaseTime {
    double wallSeconds = 0.0;
    double simSeconds = 0.0;
};

/// Runs `body` as one phase of the measured window (skipped from the
/// window when `warmup`): a span, its wall time, the simulated seconds
/// `body` returns, executed events and, traced, profiler self time.
template <class Body>
PhaseTime timedPhase(Ctx& ctx, const char* name, long unit, bool warmup, Body&& body) {
    std::optional<WindowPhase> phase;
    if (!warmup) phase.emplace(ctx.pass.result, ctx.pass.traced);
    SpanLog::Scope scope(ctx.pass.spans, name, unit, warmup);
    const double simSeconds = body();
    const double wallSeconds = scope.close();
    if (phase) phase->finish(wallSeconds, simSeconds);
    return {wallSeconds, simSeconds};
}

/// A window phase of the cycle that belongs to no unit.
template <class Body>
void overheadPhase(Ctx& ctx, const char* name, Body&& body) {
    const PhaseTime time = timedPhase(ctx, name, -1, false, std::forward<Body>(body));
    ctx.pass.result.addOverhead(time.wallSeconds, time.simSeconds);
}

std::string md5Of(const std::string& text) {
    return util::toHex(util::Md5::hash(
        {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()}));
}

// ---------------------------------------------------------------- paper_pair

constexpr long kPaperWarmupUnits = 1;
constexpr double kExperimentSeconds = 120.0;
/// runPath() runs each flow plus a 10 s drain tail; a two-path
/// experiment therefore simulates 2 x 130 s of traffic time (bring-up
/// is not visible from outside and is not counted).
constexpr double kExperimentSimSeconds = 2.0 * (kExperimentSeconds + 10.0);

struct GoldenFigure {
    std::string id;
    scenario::Workload workload;
    bench::Metric metric;
    std::string md5;
};

/// The fig1-7 CSV digests, read from the golden test that pins them so
/// there is one source of truth.
std::vector<GoldenFigure> loadGolden(const std::string& path) {
    std::ifstream in{path};
    if (!in) throw std::runtime_error("cannot read golden digests from " + path);
    std::ostringstream text;
    text << in.rdbuf();
    const std::string source = text.str();
    static const std::regex kEntry(
        R"re(\{"(\w+)",\s*scenario::Workload::(\w+),\s*Metric::(\w+),\s*"([0-9a-f]{32})"\})re");
    const std::map<std::string, bench::Metric> metrics = {
        {"bitrate_kbps", bench::Metric::bitrate_kbps},
        {"jitter_seconds", bench::Metric::jitter_seconds},
        {"loss_packets", bench::Metric::loss_packets},
        {"rtt_seconds", bench::Metric::rtt_seconds},
    };
    std::vector<GoldenFigure> golden;
    for (auto it = std::sregex_iterator(source.begin(), source.end(), kEntry);
         it != std::sregex_iterator(); ++it) {
        const std::smatch& m = *it;
        const auto metric = metrics.find(m[3]);
        if (metric == metrics.end() || (m[2] != "voip_g711" && m[2] != "cbr_1mbps"))
            throw std::runtime_error("unrecognised golden entry " + m[1].str());
        golden.push_back({m[1], m[2] == "voip_g711" ? scenario::Workload::voip_g711
                                                     : scenario::Workload::cbr_1mbps,
                          metric->second, m[4]});
    }
    if (golden.size() != 7)
        throw std::runtime_error("expected 7 golden figure digests in " + path + ", found " +
                                 std::to_string(golden.size()));
    return golden;
}

/// Output check for one experiment; returns the failure or "".
std::string checkExperiment(const scenario::ExperimentResult& result,
                            const std::vector<GoldenFigure>& golden,
                            std::map<int, std::string>& firstDigests) {
    for (const scenario::PathRun* run : {&result.umts, &result.ethernet}) {
        if (run->packetsSent == 0 || run->packetsReceived > run->packetsSent)
            return "received " + std::to_string(run->packetsReceived) + " of " +
                   std::to_string(run->packetsSent) + " sent";
        if (run->series.bitrateKbps.empty()) return "empty QoS series";
    }
    if (!result.umts.umtsUsed) return "UMTS path not used";
    std::string digests;
    for (const bench::Metric metric :
         {bench::Metric::bitrate_kbps, bench::Metric::jitter_seconds,
          bench::Metric::loss_packets, bench::Metric::rtt_seconds})
        digests += md5Of(bench::figureCsv(result, metric)) + ' ';
    for (const GoldenFigure& figure : golden) {
        if (figure.workload != result.workload) continue;
        const std::string actual = md5Of(bench::figureCsv(result, figure.metric));
        if (actual != figure.md5) return figure.id + " digest " + actual + " != " + figure.md5;
    }
    // Every experiment of a kind in one pass runs the same seed, so its
    // figure CSVs must not change from one unit to the next.
    auto [first, inserted] = firstDigests.emplace(int(result.workload), digests);
    if (!inserted && first->second != digests) return "figure CSVs changed between units";
    return "";
}

void addPathCounts(ExactRecord& record, const scenario::PathRun& run) {
    record.values["ditg.packets_sent"] += double(run.packetsSent);
    record.values["ditg.packets_received"] += double(run.packetsReceived);
}

// ---------------------------------------------------------------- fleets

constexpr long kFleetWarmupUnits = 2;
constexpr double kWaveSeconds = 20.0;

constexpr std::size_t kSoakUes = 32;
constexpr double kSoakSeconds = 180.0;
constexpr double kSettleSeconds = 240.0;
constexpr double kRecoverDeadlineSeconds = 600.0;
constexpr double kStopDrainSeconds = 30.0;

constexpr std::size_t kTcpUes = 8;
constexpr std::size_t kTcpWavesPerFleet = 10;
constexpr double kTcpLoss = 0.02;

/// Extra set-ups measured at the start of every fleet cycle.
constexpr std::size_t kSetupProbesPerCycle = 8;

double simSeconds(scenario::Fleet& fleet) { return sim::toSeconds(fleet.now()); }

/// A fleet cycle's world: the fleet and the faults armed on it. The
/// injector is declared last so it is destroyed before the fleet.
struct FleetWorld {
    std::unique_ptr<scenario::Fleet> fleet;
    fault::FaultPlan plan;
    std::unique_ptr<fault::FaultInjector> injector;
};

/// A workload's fleet: its configuration and how its faults are armed.
struct FleetKind {
    scenario::FleetConfig (*config)(std::uint64_t seed);
    void (*arm)(FleetWorld& world, std::uint64_t seed);
    bool programTracer;  ///< obs::beginRun() turns the program's tracer on
};

/// Fleet construction, concurrent bring-up, routing and fault arming —
/// the set-up every fleet cycle pays. Returns the set-up wall seconds;
/// throws on a failed step.
double setUpFleet(Ctx& ctx, FleetWorld& world, const FleetKind& kind, std::uint64_t seed,
                  ExactRecord& record, bool warmup) {
    SpanLog& spans = ctx.pass.spans;
    double seconds = 0.0;
    {
        SpanLog::Scope scope(spans, "build", -1, warmup);
        world.fleet = std::make_unique<scenario::Fleet>(kind.config(seed));
        seconds += scope.close();
    }
    scenario::Fleet& fleet = *world.fleet;
    fleet.sim().attachLogClock();
    const double simBefore = simSeconds(fleet);
    {
        SpanLog::Scope scope(spans, "bringup", -1, warmup);
        const auto started = fleet.startAll();
        seconds += scope.close();
        if (!started.ok()) throw std::runtime_error("startAll: " + started.error().message);
    }
    record.values["scenario.bringup_sim_s"] += simSeconds(fleet) - simBefore;
    {
        SpanLog::Scope scope(spans, "route", -1, warmup);
        const auto routed = fleet.addDestinationAll();
        seconds += scope.close();
        if (!routed.ok())
            throw std::runtime_error("addDestinationAll: " + routed.error().message);
    }
    SpanLog::Scope scope(spans, "arm", -1, warmup);
    kind.arm(world, seed);
    return seconds + scope.close();
}

/// Set-up failures count as one failed attempt.
void failSetup(PassResult& result, const std::string& what) {
    ++result.attempted;
    result.fail(what);
}

/// Set-up probes, run at the start of every fleet cycle: further
/// set-ups of the cycle's fleet, each in a private RunContext and
/// destroyed at once, so setup_s is a median over many samples rather
/// than one per cycle. They run before the cycle's own context, which
/// resets the LCP magic entropy, so the cycle simulates as if they had
/// not run.
void probeFleetSetUp(Ctx& ctx, const FleetKind& kind, std::uint64_t seed, bool firstCycle) {
    PassResult& result = ctx.pass.result;
    for (std::size_t probe = 0; probe < kSetupProbesPerCycle; ++probe) {
        const bool warmup = firstCycle && probe == 0;
        obs::RunContext context{seed};
        if (kind.programTracer) obs::beginRun();
        ppp::resetMagicEntropy();
        SpanLog::Scope scope(ctx.pass.spans, "setup_probe", -1, warmup);
        FleetWorld world;
        ExactRecord unused;
        try {
            const double seconds = setUpFleet(ctx, world, kind, seed, unused, warmup);
            if (!warmup) result.setupSeconds.push_back(seconds);
            ++result.attempted;
        } catch (const std::exception& error) {
            failSetup(result, std::string{"set-up probe: "} + error.what());
        }
    }
}

/// One traffic wave (a unit). Returns the check failure or "".
std::string runWave(Ctx& ctx, scenario::Fleet& fleet, bool tcp, long unit, bool warmup,
                    ExactRecord& record) {
    std::vector<scenario::FleetCbrRun> cbr;
    std::vector<scenario::FleetTcpRun> tcpRuns;
    const PhaseTime time =
        timedPhase(ctx, tcp ? "tcp_wave" : "cbr_wave", unit, warmup, [&] {
            const double before = simSeconds(fleet);
            if (tcp)
                tcpRuns = fleet.runTcpAll(kWaveSeconds);
            else
                cbr = fleet.runCbrAll(kWaveSeconds);
            return simSeconds(fleet) - before;
        });
    if (!warmup) ctx.pass.result.addUnit(time.wallSeconds, time.simSeconds);

    auto& v = record.values;
    for (const scenario::FleetCbrRun& run : cbr) {
        v["ditg.packets_sent"] += double(run.packetsSent);
        v["ditg.packets_received"] += double(run.packetsReceived);
        if (run.packetsReceived > run.packetsSent)
            return run.imsi + ": received more CBR packets than sent";
    }
    std::uint64_t acked = 0;
    for (const scenario::FleetTcpRun& run : tcpRuns) {
        v["ditg.packets_sent"] += double(run.probesSent);
        v["ditg.packets_received"] += double(run.probesReceived);
        v["tcp.segments_sent"] += double(run.tcp.segmentsSent);
        v["tcp.retransmissions"] += double(run.tcp.retransmissions);
        v["tcp.timeouts"] += double(run.tcp.timeouts);
        v["tcp.fast_retransmits"] += double(run.tcp.fastRetransmits);
        v["tcp.dup_acks"] += double(run.tcp.dupAcksSeen);
        v["tcp.bytes_acked"] += double(run.tcp.bytesAcked);
        acked += run.tcp.bytesAcked;
        if (run.probesReceived > run.probesSent)
            return run.imsi + ": received more TCP probes than sent";
        // bytesAcked counts acknowledged sequence space, in which the
        // FIN takes one number (TcpConnection::handleAck), so a closed
        // connection reads exactly one above the payload it sent.
        if (run.tcp.bytesAcked > run.tcp.bytesSent + 1)
            return run.imsi + ": acked " + std::to_string(run.tcp.bytesAcked) +
                   " bytes of " + std::to_string(run.tcp.bytesSent) + " sent";
    }
    if (tcp && acked == 0) return "TCP wave moved no data";
    return "";
}

/// Runs `waves` units on the fleet (every third on TCP when `mixed`,
/// else all TCP) until `waves` have run or the fleet reaches `until`.
std::vector<std::string> runWaves(Ctx& ctx, scenario::Fleet& fleet, std::size_t waves,
                                  sim::SimTime until, bool mixed, ExactRecord& record) {
    std::vector<std::string> failures;
    for (std::size_t wave = 0; wave < waves && fleet.now() < until; ++wave) {
        const long unit = ctx.pass.unit++;
        try {
            failures.push_back(runWave(ctx, fleet, !mixed || wave % 3 == 2, unit,
                                       unit < kFleetWarmupUnits, record));
        } catch (const std::exception& error) {
            failures.push_back(error.what());
        }
    }
    return failures;
}

/// Stop every site, drain, and demand a drained cell pool.
std::string stopFleet(Ctx& ctx, scenario::Fleet& fleet) {
    overheadPhase(ctx, "teardown", [&] {
        const double before = simSeconds(fleet);
        for (std::size_t i = 0; i < fleet.umtsSiteCount(); ++i)
            (void)fleet.stopUmts(i);  // an already-down site reports an error; fine
        fleet.runFor(sim::seconds(kStopDrainSeconds));
        return simSeconds(fleet) - before;
    });
    const umts::CellCapacity& cell = fleet.operatorNetwork().cell();
    if (cell.uplinkAllocatedBps() != 0.0 || cell.downlinkAllocatedBps() != 0.0)
        return "capacity leak: cell allocation not zero after a full stop";
    return "";
}

/// Destroy the cycle's world inside the window, then book the cycle:
/// the set-up and every unit are attempts, and every unit fails when
/// the cycle-level invariants do.
void closeCycle(Ctx& ctx, FleetWorld& world, std::uint64_t seed,
                std::vector<std::string>& unitFailures, const std::string& cycleFailure,
                ExactRecord record) {
    overheadPhase(ctx, "destroy", [&] {
        world.injector.reset();
        world.fleet.reset();
        return 0.0;
    });
    PassResult& result = ctx.pass.result;
    ++result.attempted;  // the set-up
    for (std::string& failure : unitFailures) {
        ++result.attempted;
        if (failure.empty()) failure = cycleFailure;
        if (!failure.empty()) result.fail("cycle seed " + std::to_string(seed) + ": " + failure);
    }
    result.endCycle(std::move(record));
}

// ---------------------------------------------------------------- fleet_soak

scenario::FleetConfig soakConfig(std::uint64_t seed) {
    scenario::FleetConfig config = scenario::makeUniformFleet(kSoakUes, seed);
    for (auto& site : config.umtsSites) site.supervise.enable = true;
    return config;
}

void armSoak(FleetWorld& world, std::uint64_t seed) {
    scenario::Fleet& fleet = *world.fleet;
    fault::RandomPlanConfig planConfig;
    planConfig.seed = seed;
    planConfig.siteCount = kSoakUes;
    planConfig.start = fleet.now() + sim::seconds(10.0);
    planConfig.horizon = fleet.now() + sim::seconds(kSoakSeconds);
    planConfig.meanGap = sim::seconds(kSoakSeconds / 12.0);
    world.plan = fault::FaultPlan::random(planConfig);
    world.injector = std::make_unique<fault::FaultInjector>(fleet, world.plan);
    world.injector->arm();
}

constexpr FleetKind kSoak{soakConfig, armSoak, /*programTracer=*/true};

void runSoakCycle(Ctx& ctx, std::size_t index) {
    PassResult& result = ctx.pass.result;
    const std::uint64_t seed = cycleSeed(ctx.config.seed, index);
    probeFleetSetUp(ctx, kSoak, seed, index == 0);
    obs::RunContext context{seed};
    obs::beginRun();  // zeroed registry, tracer on
    ppp::resetMagicEntropy();
    SpanLog::Scope cycleSpan(ctx.pass.spans, "soak");

    ExactRecord record;
    FleetWorld world;
    try {
        result.setupSeconds.push_back(setUpFleet(ctx, world, kSoak, seed, record, false));
    } catch (const std::exception& error) {
        failSetup(result, error.what());
        return;
    }
    scenario::Fleet& fleet = *world.fleet;

    // Waves until the fault horizon passes; every third rides TCP, so
    // the plan lands on both datapaths.
    std::vector<std::string> unitFailures =
        runWaves(ctx, fleet, SIZE_MAX, fleet.now() + sim::seconds(kSoakSeconds),
                 /*mixed=*/true, record);

    std::string cycleFailure;
    overheadPhase(ctx, "settle", [&] {
        fleet.runFor(sim::seconds(kSettleSeconds));
        return kSettleSeconds;
    });
    // Supervised recovery: every supervisor reaches HEALTHY or
    // FAILED_OVER, or still has recovery work pending.
    const auto settled = [&fleet] {
        for (std::size_t i = 0; i < fleet.umtsSiteCount(); ++i) {
            const supervise::Health health = fleet.umtsSite(i).supervisor()->health();
            if (health != supervise::Health::healthy &&
                health != supervise::Health::failed_over)
                return false;
        }
        return true;
    };
    overheadPhase(ctx, "recover", [&] {
        const double before = simSeconds(fleet);
        const sim::SimTime until = fleet.now() + sim::seconds(kRecoverDeadlineSeconds);
        while (!settled() && fleet.now() < until) fleet.runFor(sim::seconds(5.0));
        return simSeconds(fleet) - before;
    });
    for (std::size_t i = 0; i < fleet.umtsSiteCount() && cycleFailure.empty(); ++i) {
        const supervise::LinkSupervisor& sup = *fleet.umtsSite(i).supervisor();
        if (sup.health() != supervise::Health::healthy &&
            sup.health() != supervise::Health::failed_over && !sup.hasPendingWork())
            cycleFailure = fleet.umtsSite(i).hostname() + " is wedged in " +
                           supervise::healthName(sup.health());
    }
    if (world.plan.size() > 0 && world.injector->stats().fired == world.injector->stats().skipped)
        cycleFailure = "plan had events but nothing was injected";
    const std::string stopFailure = stopFleet(ctx, fleet);
    if (cycleFailure.empty()) cycleFailure = stopFailure;

    const std::string directory = ctx.config.scratchDir + "/soak" + std::to_string(index);
    overheadPhase(ctx, "export", [&] {
        obs::Tracer::instance().setEnabled(false);
        const auto written = fleet.writeTelemetry(directory);
        if (!written.ok() && cycleFailure.empty())
            cycleFailure = "telemetry export: " + written.error().message;
        return 0.0;
    });
    if (index == 0) {
        std::error_code ignored;
        const auto size = [&](const char* file) {
            const auto bytes = std::filesystem::file_size(directory + "/" + file, ignored);
            return ignored ? 0.0 : double(bytes);
        };
        result.layer["obs.trace_bytes"] = size(obs::kTraceFile);
        result.layer["obs.metrics_bytes"] = size(obs::kMetricsFile);
    }
    std::filesystem::remove_all(directory);
    addExactCounts(record, ctx.pass.keepRegistryLines);
    closeCycle(ctx, world, seed, unitFailures, cycleFailure, std::move(record));
}

// ---------------------------------------------------------------- tcp_fleet

scenario::FleetConfig tcpConfig(std::uint64_t seed) {
    return scenario::makeUniformFleet(kTcpUes, seed);
}

/// A steady RLC loss floor on every bearer for the fleet's whole life
/// (injectLossBurst sets a deadline, no timer).
void armTcpLoss(FleetWorld& world, std::uint64_t) {
    for (std::size_t i = 0; i < kTcpUes; ++i) {
        umts::UmtsSession* session = world.fleet->operatorNetwork().sessionAt(i);
        if (!session) throw std::runtime_error("no session for UE " + std::to_string(i));
        session->bearer().injectLossBurst(kTcpLoss, sim::seconds(1e6));
    }
}

constexpr FleetKind kTcp{tcpConfig, armTcpLoss, /*programTracer=*/false};

void runTcpCycle(Ctx& ctx, std::size_t index) {
    PassResult& result = ctx.pass.result;
    const std::uint64_t seed = cycleSeed(ctx.config.seed, index);
    probeFleetSetUp(ctx, kTcp, seed, index == 0);
    obs::RunContext context{seed};  // tracer off
    ppp::resetMagicEntropy();
    SpanLog::Scope cycleSpan(ctx.pass.spans, "fleet");

    ExactRecord record;
    FleetWorld world;
    try {
        result.setupSeconds.push_back(setUpFleet(ctx, world, kTcp, seed, record, false));
    } catch (const std::exception& error) {
        failSetup(result, error.what());
        return;
    }
    std::vector<std::string> unitFailures = runWaves(
        ctx, *world.fleet, kTcpWavesPerFleet, sim::SimTime::max(), /*mixed=*/false, record);
    const std::string cycleFailure = stopFleet(ctx, *world.fleet);
    addExactCounts(record, ctx.pass.keepRegistryLines);
    closeCycle(ctx, world, seed, unitFailures, cycleFailure, std::move(record));
}

// ---------------------------------------------------------------- paper_pair

/// Set-up probe, run before every paper_pair unit so its samples see
/// the same host conditions as the units: the UMTS path's testbed
/// build, bring-up and route, the part of every experiment that
/// precedes its traffic. Returns the set-up seconds, or -1 on failure.
double paperSetupProbe(Ctx& ctx, ExactRecord& record, bool warmup) {
    PassResult& result = ctx.pass.result;
    SpanLog& spans = ctx.pass.spans;
    obs::RunContext context{ctx.config.seed};
    ppp::resetMagicEntropy();
    SpanLog::Scope cycle(spans, "setup_probe", -1, warmup);
    scenario::TestbedConfig testbedConfig;
    testbedConfig.seed = ctx.config.seed;
    std::unique_ptr<scenario::Testbed> testbed;
    double seconds = 0.0;
    {
        SpanLog::Scope scope(spans, "build", -1, warmup);
        testbed = std::make_unique<scenario::Testbed>(testbedConfig);
        seconds += scope.close();
    }
    const double simBefore = sim::toSeconds(testbed->sim().now());
    {
        SpanLog::Scope scope(spans, "bringup", -1, warmup);
        const auto started = testbed->startUmts();
        seconds += scope.close();
        if (!started.ok()) {
            failSetup(result, "umts start: " + started.error().message);
            return -1.0;
        }
    }
    record.values["scenario.bringup_sim_s"] += sim::toSeconds(testbed->sim().now()) - simBefore;
    {
        SpanLog::Scope scope(spans, "route", -1, warmup);
        const auto added = testbed->addUmtsDestination(testbed->inriaEthAddress().str() + "/32");
        seconds += scope.close();
        if (!added.ok()) {
            failSetup(result, "add destination: " + added.error().message);
            return -1.0;
        }
    }
    SpanLog::Scope scope(spans, "teardown", -1, warmup);
    (void)testbed->stopUmts();
    testbed.reset();
    ++result.attempted;
    return seconds;
}

/// One paper_pair cycle: a set-up probe, then one unit — a VoIP and a
/// CBR experiment, together the inputs of all seven figures.
/// Alternating single experiments would make a bimodal unit time whose
/// median jumps between the two modes. Every cycle runs --seed itself.
void runPaperCycle(Ctx& ctx, const std::vector<GoldenFigure>& golden,
                   std::map<int, std::string>& firstDigests) {
    PassResult& result = ctx.pass.result;
    SpanLog& spans = ctx.pass.spans;
    const std::uint64_t seed = ctx.config.seed;
    const long unit = ctx.pass.unit++;
    const bool warmup = unit < kPaperWarmupUnits;
    ExactRecord record;
    const double setup = paperSetupProbe(ctx, record, warmup);
    if (!warmup && setup >= 0.0) result.setupSeconds.push_back(setup);
    SpanLog::Scope unitSpan(spans, "unit", unit, warmup);
    PhaseTime unitTime;
    std::string failure;
    for (const scenario::Workload workload :
         {scenario::Workload::voip_g711, scenario::Workload::cbr_1mbps}) {
        obs::RunContext context{seed};
        ppp::resetMagicEntropy();
        scenario::ExperimentOptions options;
        options.workload = workload;
        options.durationSeconds = kExperimentSeconds;
        options.seed = seed;
        scenario::ExperimentResult experiment;
        try {
            const char* name = scenario::workloadName(workload);
            const PhaseTime time = timedPhase(ctx, name, unit, warmup, [&] {
                if (!ctx.pass.traced) {
                    experiment = scenario::runExperiment(options);
                    return kExperimentSimSeconds;
                }
                // The same two calls runExperiment makes, timed one by
                // one: their difference isolates the UMTS stack.
                experiment.workload = workload;
                experiment.durationSeconds = kExperimentSeconds;
                {
                    SpanLog::Scope path(spans, "umts_path", unit, warmup);
                    experiment.umts =
                        scenario::runPath(scenario::PathKind::umts_to_ethernet, options);
                }
                SpanLog::Scope path(spans, "eth_path", unit, warmup);
                experiment.ethernet =
                    scenario::runPath(scenario::PathKind::ethernet_to_ethernet, options);
                return kExperimentSimSeconds;
            });
            unitTime.wallSeconds += time.wallSeconds;
            unitTime.simSeconds += time.simSeconds;
        } catch (const std::exception& error) {
            failure = error.what();
            continue;
        }
        if (failure.empty()) failure = checkExperiment(experiment, golden, firstDigests);
        addPathCounts(record, experiment.umts);
        addPathCounts(record, experiment.ethernet);
        addExactCounts(record, ctx.pass.keepRegistryLines);
    }
    if (!warmup) result.addUnit(unitTime.wallSeconds, unitTime.simSeconds);
    ++result.attempted;
    if (!failure.empty()) result.fail(failure);
    result.endCycle(std::move(record));
}

}  // namespace

CycleRunner makeWorkload(const std::string& name, const PassConfig& config) {
    if (name == "paper_pair") {
        auto golden = std::make_shared<const std::vector<GoldenFigure>>(
            config.seed == 42 ? loadGolden(config.goldenFile) : std::vector<GoldenFigure>{});
        auto firstDigests = std::make_shared<std::map<int, std::string>>();
        return [config, golden, firstDigests](Pass& pass, std::size_t) {
            Ctx ctx{pass, config};
            runPaperCycle(ctx, *golden, *firstDigests);
        };
    }
    if (name == "fleet_soak")
        return [config](Pass& pass, std::size_t index) {
            Ctx ctx{pass, config};
            runSoakCycle(ctx, index);
        };
    if (name == "tcp_fleet")
        return [config](Pass& pass, std::size_t index) {
            Ctx ctx{pass, config};
            runTcpCycle(ctx, index);
        };
    return {};
}

}  // namespace perfbench

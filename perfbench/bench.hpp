// Shared declarations of the end-to-end benchmark (perfbench/README.md
// explains the workloads and every metric). The benchmark drives the
// simulator only through its public scenario:: API and observes it
// from outside: wall-clock spans around each call it makes, the
// program's own obs::Profiler categories, and obs::Registry counters.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/profiler.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One recorded interval: workload -> cycle -> phase, linked by parent
/// index. `unit` is the timed unit the span belongs to (-1 for set-up
/// and cycle-level phases); warm-up spans are kept but flagged.
struct Span {
    std::string name;
    int parent = -1;
    long unit = -1;
    bool warmup = false;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

/// In-memory span log. Timing is always taken (the unit and set-up
/// times come from the same scopes); spans are only stored when the
/// log is enabled, i.e. in the traced pass.
class SpanLog {
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    /// RAII interval. close() (or destruction) ends it and returns its
    /// length in seconds; nested scopes must close in LIFO order.
    class Scope {
      public:
        Scope(SpanLog& log, const char* name, long unit = -1, bool warmup = false);
        ~Scope() { close(); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;
        double close();

      private:
        SpanLog& log_;
        int index_ = -1;
        std::int64_t startNs_ = 0;
        bool open_ = true;
        double seconds_ = 0.0;
    };

    [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/// Per-name span count and total length.
struct SpanTotal {
    std::size_t count = 0;
    std::int64_t totalNs = 0;
};
[[nodiscard]] std::map<std::string, SpanTotal> spanTotals(const std::vector<Span>& spans,
                                                         bool includeWarmup);

/// Profiler totals at one instant, for deltas around timed phases.
struct ProfileSnapshot {
    std::array<std::int64_t, onelab::obs::kProfileCategoryCount> selfNs{};
    std::array<std::uint64_t, onelab::obs::kProfileCategoryCount> count{};
};
[[nodiscard]] ProfileSnapshot takeProfile();

/// Counts that must repeat bit for bit for a seed, keyed by metric
/// name, plus an md5 over the whole registry (profile.* excluded: the
/// profiler's values are wall times). `registryLines` holds what the
/// digest covers, per registry name, when the record is kept for a
/// comparison that names the metrics that differ.
struct ExactRecord {
    std::map<std::string, double> values;
    std::string registryDigest;
    std::map<std::string, std::string> registryLines;
};

/// Add the current thread's registry aggregates (and, when its
/// profiler is on, the frame scope counts) to `record`; with
/// `keepLines` also every registry line the digest covers.
void addExactCounts(ExactRecord& record, bool keepLines);

/// What one pass over a workload produced. Units, set-up samples and
/// the window exclude warm-up; `cycles` holds every cycle's exact
/// record (a cycle is one testbed pair or one fleet lifetime).
struct PassResult {
    /// One timed unit; `cycle` indexes `cycles`.
    struct Unit {
        double ms = 0.0;
        double simSeconds = 0.0;
        std::size_t cycle = 0;
    };
    /// Window phases of a cycle that belong to no unit (settle,
    /// recovery, teardown, export, destroy).
    struct Overhead {
        double wallSeconds = 0.0;
        double simSeconds = 0.0;
    };

    std::vector<double> setupSeconds;
    std::vector<Unit> units;
    std::vector<Overhead> overhead;  ///< per cycle, parallel to `cycles`
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> failures;
    double windowWallSeconds = 0.0;
    double windowSimSeconds = 0.0;
    std::uint64_t windowEvents = 0;
    ProfileSnapshot windowProfile;
    std::vector<ExactRecord> cycles;
    /// Layer values read once per pass (export sizes, metric names).
    std::map<std::string, double> layer;

    void fail(const std::string& what);
    /// Book a timed unit or an overhead phase against the open cycle
    /// (the one whose exact record is pushed next).
    void addUnit(double wallSeconds, double simSeconds);
    void addOverhead(double wallSeconds, double simSeconds);
    /// Close the open cycle.
    void endCycle(ExactRecord record);
};

/// Everything a workload needs, the same for both passes.
struct PassConfig {
    std::uint64_t seed = 1;
    std::string goldenFile;  ///< fig golden digests (paper_pair, seed 42)
    std::string scratchDir;  ///< telemetry export target, deleted after use
};

/// One pass over a workload, run cycle by cycle: the untraced pass, or
/// the traced one (profiler on, spans stored) whose cycles alternate
/// with the untraced pass's.
struct Pass {
    Pass(bool traced_, bool keepRegistryLines_)
        : traced(traced_), keepRegistryLines(keepRegistryLines_), spans(traced_) {}
    bool traced;
    /// Keep each cycle's registry lines for the untraced/traced
    /// comparison (--trace 1 only: they cost memory).
    bool keepRegistryLines;
    SpanLog spans;
    PassResult result;
    long unit = 0;  ///< units started so far, warm-up included
};

/// Accumulates one timed phase into the pass window: wall, simulated
/// seconds, executed events and (traced) profiler self time.
class WindowPhase {
  public:
    WindowPhase(PassResult& result, bool traced);
    void finish(double wallSeconds, double simSeconds);

  private:
    PassResult& result_;
    bool traced_;
    std::uint64_t eventsBefore_;
    ProfileSnapshot before_;
};

/// Runs cycle `index` of a workload into a pass. A runner keeps state
/// across the cycles of one pass, so each pass needs its own.
using CycleRunner = std::function<void(Pass&, std::size_t index)>;

/// The runner of workload `name` (paper_pair, fleet_soak, tcp_fleet),
/// or an empty function for an unknown name.
[[nodiscard]] CycleRunner makeWorkload(const std::string& name, const PassConfig& config);

/// Seed of cycle `index`: cycle 0 runs the given seed itself.
[[nodiscard]] std::uint64_t cycleSeed(std::uint64_t seed, std::size_t index);

}  // namespace perfbench

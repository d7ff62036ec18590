#include <cstdio>

#include "bench.hpp"
#include "obs/registry.hpp"
#include "util/md5.hpp"

namespace perfbench {

using onelab::obs::Profiler;
using onelab::obs::Registry;

namespace {

std::int64_t nowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

}  // namespace

SpanLog::Scope::Scope(SpanLog& log, const char* name, long unit, bool warmup)
    : log_(log), startNs_(nowNs()) {
    if (!log_.enabled_) return;
    index_ = int(log_.spans_.size());
    const int parent = log_.open_.empty() ? -1 : log_.open_.back();
    log_.spans_.push_back(Span{name, parent, unit, warmup, startNs_, 0});
    log_.open_.push_back(index_);
}

double SpanLog::Scope::close() {
    if (!open_) return seconds_;
    open_ = false;
    const std::int64_t endNs = nowNs();
    seconds_ = double(endNs - startNs_) * 1e-9;
    if (index_ >= 0) {
        log_.spans_[std::size_t(index_)].endNs = endNs;
        log_.open_.pop_back();
    }
    return seconds_;
}

std::map<std::string, SpanTotal> spanTotals(const std::vector<Span>& spans,
                                            bool includeWarmup) {
    std::map<std::string, SpanTotal> totals;
    for (const Span& span : spans) {
        if (span.warmup && !includeWarmup) continue;
        SpanTotal& total = totals[span.name];
        ++total.count;
        total.totalNs += span.endNs - span.startNs;
    }
    return totals;
}

ProfileSnapshot takeProfile() {
    ProfileSnapshot snapshot;
    const Profiler& profiler = Profiler::instance();
    for (std::size_t i = 0; i < onelab::obs::kProfileCategoryCount; ++i) {
        const auto category = onelab::obs::ProfileCategory(i);
        snapshot.selfNs[i] = profiler.selfNs(category);
        snapshot.count[i] = profiler.scopeCount(category);
    }
    return snapshot;
}

namespace {

bool endsWith(const std::string& text, const std::string& suffix) {
    return text.size() >= suffix.size() &&
           text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

void addExactCounts(ExactRecord& record, bool keepLines) {
    // Counter name in the registry -> exact metric it feeds. Per-IMSI
    // bearer families ("umts.bearer.<imsi>.ul.dropped_radio") are
    // summed over every IMSI and both directions.
    static const std::pair<const char*, const char*> kCounters[] = {
        {"sim.events_executed", "sim.events_executed"},
        {"sim.events_scheduled", "sim.events_scheduled"},
        {"sim.events_cancelled", "sim.events_cancelled"},
        {"sim.pool.buffers_reused", "sim.pool_reused"},
        {"sim.pool.buffers_allocated", "sim.pool_allocated"},
        {"umts.cell.regrants", "umts.cell_regrants"},
        {"umts.cell.denied_upgrades", "umts.denied_upgrades"},
        {"net.queue.dropped", "net.queue_dropped"},
        {"modem.at.commands", "modem.at_commands"},
        {"fault.injected", "fault.injected"},
        {"fault.skipped", "fault.skipped"},
        {"supervise.incidents", "supervise.incidents"},
        {"supervise.recovered", "supervise.recovered"},
    };
    static const std::pair<const char*, const char*> kBearerSums[] = {
        {".chunks_delivered", "umts.chunks_delivered"},
        {".dropped_overflow", "umts.dropped_overflow"},
        {".dropped_radio", "umts.dropped_radio"},
    };
    for (const auto& [registryName, metric] : kCounters) record.values[metric] += 0.0;
    for (const auto& [suffix, metric] : kBearerSums) record.values[metric] += 0.0;

    const std::vector<onelab::obs::MetricSample> samples = Registry::instance().snapshot();
    // Chained: a record spanning several registries (paper_pair's two
    // experiments) folds the previous digest in first.
    onelab::util::Md5 md5;
    md5.update(record.registryDigest);
    std::size_t names = 0;
    for (const onelab::obs::MetricSample& sample : samples) {
        if (sample.name.rfind("profile.", 0) == 0) continue;
        ++names;
        char line[96];
        std::snprintf(line, sizeof line, "=%llu/%lld/%llu/%.6f\n",
                      (unsigned long long)sample.counterValue, (long long)sample.gaugeValue,
                      (unsigned long long)sample.count, sample.sum);
        md5.update(sample.name);
        md5.update(std::string{line});
        if (keepLines) record.registryLines[sample.name] += line;
        const double value = double(sample.counterValue);
        for (const auto& [registryName, metric] : kCounters)
            if (sample.name == registryName) record.values[metric] += value;
        if (sample.name.rfind("umts.", 0) == 0)
            for (const auto& [suffix, metric] : kBearerSums)
                if (endsWith(sample.name, suffix)) record.values[metric] += value;
    }
    record.values["obs.metric_names"] += double(names);
    record.registryDigest = onelab::util::toHex(md5.finish());

    // Frame counts are profiler scope counts, so only a traced pass has
    // them; the untraced/traced comparison skips keys one side lacks.
    const Profiler& profiler = Profiler::instance();
    if (profiler.enabled()) {
        using onelab::obs::ProfileCategory;
        record.values["ppp.frames_encoded"] +=
            double(profiler.scopeCount(ProfileCategory::hdlc_encode));
        record.values["ppp.frames_decoded"] +=
            double(profiler.scopeCount(ProfileCategory::hdlc_decode));
    }
}

void PassResult::fail(const std::string& what) {
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
}

void PassResult::addUnit(double wallSeconds, double simSeconds) {
    units.push_back(Unit{wallSeconds * 1e3, simSeconds, cycles.size()});
}

void PassResult::addOverhead(double wallSeconds, double simSeconds) {
    overhead.resize(cycles.size() + 1);
    overhead.back().wallSeconds += wallSeconds;
    overhead.back().simSeconds += simSeconds;
}

void PassResult::endCycle(ExactRecord record) {
    cycles.push_back(std::move(record));
    overhead.resize(cycles.size());
}

WindowPhase::WindowPhase(PassResult& result, bool traced)
    : result_(result),
      traced_(traced),
      eventsBefore_(Registry::instance().counter("sim.events_executed").value()),
      before_(traced ? takeProfile() : ProfileSnapshot{}) {}

void WindowPhase::finish(double wallSeconds, double simSeconds) {
    result_.windowWallSeconds += wallSeconds;
    result_.windowSimSeconds += simSeconds;
    result_.windowEvents +=
        Registry::instance().counter("sim.events_executed").value() - eventsBefore_;
    if (!traced_) return;
    const ProfileSnapshot after = takeProfile();
    for (std::size_t i = 0; i < onelab::obs::kProfileCategoryCount; ++i) {
        result_.windowProfile.selfNs[i] += after.selfNs[i] - before_.selfNs[i];
        result_.windowProfile.count[i] += after.count[i] - before_.count[i];
    }
}

std::uint64_t cycleSeed(std::uint64_t seed, std::size_t index) {
    // splitmix64 step: distinct, well-mixed seeds per cycle.
    if (index == 0) return seed;
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * index;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

}  // namespace perfbench

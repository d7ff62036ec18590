// perfbench: runs one workload for a wall-clock budget and writes the
// raw measurements (unit times, set-up samples, window totals, exact
// counts, span and profiler totals) as JSON. perfbench/run.py builds
// this program, turns the raw file into the benchmark's metrics and
// prints the result line.
//
//   perfbench --workload paper_pair|fleet_soak|tcp_fleet --seed N
//             --seconds S --trace 0|1 --raw out.json [--spans spans.json]
//             [--golden tests/bench/test_fig_golden.cpp] [--scratch dir]
//
// --trace 0 runs one untraced pass. --trace 1 also runs a traced pass
// (spans stored, profiler on) whose cycles alternate with the untraced
// ones, cycle k of each on the same seed, so the two see the same host
// conditions; any exact count that differs between them is a failure.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "util/json.hpp"

namespace {

using onelab::util::JsonValue;
using namespace perfbench;

JsonValue number(double value) { return JsonValue::makeNumber(value); }

JsonValue numbers(const std::vector<double>& values) {
    JsonValue array = JsonValue::makeArray();
    for (const double value : values) array.append(number(value));
    return array;
}

JsonValue strings(const std::vector<std::string>& values) {
    JsonValue array = JsonValue::makeArray();
    for (const std::string& value : values) array.append(JsonValue::makeString(value));
    return array;
}

JsonValue valueMap(const std::map<std::string, double>& values) {
    JsonValue object = JsonValue::makeObject();
    for (const auto& [name, value] : values) object.set(name, number(value));
    return object;
}

JsonValue passJson(const PassResult& pass, bool traced) {
    JsonValue out = JsonValue::makeObject();
    out.set("setup_s", numbers(pass.setupSeconds));
    JsonValue units = JsonValue::makeArray();
    for (const PassResult::Unit& unit : pass.units) {
        JsonValue entry = JsonValue::makeArray();
        entry.append(number(unit.ms));
        entry.append(number(unit.simSeconds));
        entry.append(number(double(unit.cycle)));
        units.append(std::move(entry));
    }
    out.set("units", std::move(units));
    JsonValue overhead = JsonValue::makeArray();
    for (const PassResult::Overhead& cycle : pass.overhead) {
        JsonValue entry = JsonValue::makeArray();
        entry.append(number(cycle.wallSeconds));
        entry.append(number(cycle.simSeconds));
        overhead.append(std::move(entry));
    }
    out.set("cycle_overhead", std::move(overhead));
    out.set("attempted", number(double(pass.attempted)));
    out.set("failed", number(double(pass.failed)));
    out.set("failures", strings(pass.failures));
    out.set("window_wall_s", number(pass.windowWallSeconds));
    out.set("window_sim_s", number(pass.windowSimSeconds));
    out.set("window_events", number(double(pass.windowEvents)));
    out.set("layer", valueMap(pass.layer));
    JsonValue cycles = JsonValue::makeArray();
    for (const ExactRecord& record : pass.cycles) {
        JsonValue cycle = valueMap(record.values);
        cycle.set("registry_md5", JsonValue::makeString(record.registryDigest));
        cycles.append(std::move(cycle));
    }
    out.set("cycles", std::move(cycles));
    if (traced) {
        JsonValue profile = JsonValue::makeObject();
        for (std::size_t i = 0; i < onelab::obs::kProfileCategoryCount; ++i) {
            JsonValue category = JsonValue::makeObject();
            category.set("self_ns", number(double(pass.windowProfile.selfNs[i])));
            category.set("count", number(double(pass.windowProfile.count[i])));
            profile.set(onelab::obs::profileCategoryName(onelab::obs::ProfileCategory(i)),
                        std::move(category));
        }
        out.set("profile", std::move(profile));
    }
    return out;
}

JsonValue spanTotalsJson(const std::vector<Span>& spans) {
    JsonValue out = JsonValue::makeObject();
    for (const auto& [name, total] : spanTotals(spans, /*includeWarmup=*/false)) {
        JsonValue entry = JsonValue::makeObject();
        entry.set("count", number(double(total.count)));
        entry.set("total_ns", number(double(total.totalNs)));
        out.set(name, std::move(entry));
    }
    return out;
}

/// Every span, in start order, for offline inspection.
bool writeSpans(const std::string& path, const std::vector<Span>& spans) {
    std::ofstream out{path};
    if (!out) return false;
    out << "[\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& span = spans[i];
        JsonValue entry = JsonValue::makeObject();
        entry.set("id", number(double(i)));
        entry.set("name", JsonValue::makeString(span.name));
        entry.set("parent", number(span.parent));
        entry.set("unit", number(double(span.unit)));
        entry.set("warmup", JsonValue::makeBool(span.warmup));
        entry.set("start_ns", number(double(span.startNs - spans.front().startNs)));
        entry.set("dur_ns", number(double(span.endNs - span.startNs)));
        out << entry.serialize() << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    out << "]\n";
    return bool(out);
}

/// Peak resident set of this process (VmHWM), KiB.
double peakRssKib() {
    std::ifstream status{"/proc/self/status"};
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6);
    return 0.0;
}

/// A registry line as kept in ExactRecord::registryLines, on one line.
std::string showLines(std::string lines) {
    if (lines.empty()) return "absent";
    std::replace(lines.begin(), lines.end(), '\n', ' ');
    lines.pop_back();
    return lines;
}

/// The registry metrics two records disagree on: how many, and the
/// first few with both values (=counter/gauge/count/sum).
std::string registryDiff(const ExactRecord& a, const ExactRecord& b) {
    std::map<std::string, std::pair<std::string, std::string>> lines;
    for (const auto& [name, line] : a.registryLines) lines[name].first = line;
    for (const auto& [name, line] : b.registryLines) lines[name].second = line;
    std::string shown;
    std::size_t differing = 0;
    for (const auto& [name, pair] : lines) {
        if (pair.first == pair.second) continue;
        if (++differing <= 4)
            shown += " " + name + " " + showLines(pair.first) + " vs " + showLines(pair.second);
    }
    return std::to_string(differing) + " metric(s):" + shown;
}

/// Exact-count comparison of the cycles both passes ran: how many were
/// compared, how many differ, and one line per difference.
JsonValue compareExact(const PassResult& reference, const PassResult& traced) {
    std::vector<std::string> diffs;
    std::size_t mismatched = 0;
    const std::size_t common = std::min(reference.cycles.size(), traced.cycles.size());
    for (std::size_t i = 0; i < common; ++i) {
        const std::size_t before = diffs.size();
        const ExactRecord& a = reference.cycles[i];
        const ExactRecord& b = traced.cycles[i];
        if (a.registryDigest != b.registryDigest)
            diffs.push_back("cycle " + std::to_string(i) + ": registry digest differs in " +
                            registryDiff(a, b));
        for (const auto& [name, value] : a.values) {
            const auto other = b.values.find(name);
            if (other != b.values.end() && other->second != value)
                diffs.push_back("cycle " + std::to_string(i) + ": " + name + " differs");
        }
        if (diffs.size() != before) ++mismatched;
    }
    JsonValue out = JsonValue::makeObject();
    out.set("compared", number(double(common)));
    out.set("mismatched", number(double(mismatched)));
    out.set("diffs", strings(diffs));
    return out;
}

/// Whether another cycle starts: the first always does, and until a
/// unit has been timed so does every cycle before the deadline; later
/// ones while the run, at the mean cycle length so far, ends nearer the
/// deadline with it than without it.
bool startCycle(std::size_t done, bool timedUnit, Clock::time_point begin,
                Clock::time_point deadline) {
    if (done == 0) return true;
    const Clock::time_point now = Clock::now();
    if (now >= deadline) return false;
    return !timedUnit || now + (now - begin) / long(2 * done) < deadline;
}

void usage() {
    std::fprintf(stderr,
                 "usage: perfbench --workload paper_pair|fleet_soak|tcp_fleet --seed N "
                 "--seconds S --trace 0|1 --raw out.json [--spans spans.json] "
                 "[--golden file] [--scratch dir]\n");
}

}  // namespace

int main(int argc, char** argv) {
    std::string workload;
    std::string rawPath;
    std::string spansPath;
    PassConfig config;
    double seconds = 0.0;
    int trace = -1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) {
            usage();
            return 2;
        }
        const std::string value = argv[++i];
        if (arg == "--workload") workload = value;
        else if (arg == "--seed") config.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (arg == "--seconds") seconds = std::atof(value.c_str());
        else if (arg == "--trace") trace = std::atoi(value.c_str());
        else if (arg == "--raw") rawPath = value;
        else if (arg == "--spans") spansPath = value;
        else if (arg == "--golden") config.goldenFile = value;
        else if (arg == "--scratch") config.scratchDir = value;
        else {
            usage();
            return 2;
        }
    }
    if (rawPath.empty() || (trace != 0 && trace != 1) || !(seconds > 0.0)) {
        usage();
        return 2;
    }
    if (config.scratchDir.empty())
        config.scratchDir = std::filesystem::path(rawPath).parent_path().string() + "/scratch";

    JsonValue raw = JsonValue::makeObject();
    raw.set("workload", JsonValue::makeString(workload));
    raw.set("seed", number(double(config.seed)));
    raw.set("trace", number(trace));
    JsonValue meta = JsonValue::makeObject();
    meta.set("nproc", number(double(std::thread::hardware_concurrency())));
    meta.set("compiler", JsonValue::makeString(PERFBENCH_COMPILER));
    meta.set("build_type", JsonValue::makeString(PERFBENCH_BUILD_TYPE));
    // The program's own tracer (obs::Tracer) is part of the workload's
    // input: only the chaos soak records and exports a trace.
    meta.set("program_tracer", JsonValue::makeBool(workload == "fleet_soak"));
    raw.set("meta", std::move(meta));

    try {
        // One runner per pass: a runner keeps per-pass state.
        const CycleRunner runUntraced = makeWorkload(workload, config);
        if (!runUntraced) {
            usage();
            return 2;
        }
        const CycleRunner runTraced = trace == 1 ? makeWorkload(workload, config) : CycleRunner{};
        Pass untraced{false, trace == 1};
        Pass traced{true, trace == 1};
        onelab::obs::Profiler& profiler = onelab::obs::Profiler::instance();
        const Clock::time_point begin = Clock::now();
        const Clock::time_point deadline =
            begin + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
        for (std::size_t cycle = 0;
             startCycle(cycle, !untraced.result.units.empty(), begin, deadline); ++cycle) {
            // Every RunContext a cycle opens inherits the profiler's
            // enabled state at its construction.
            profiler.setEnabled(false);
            runUntraced(untraced, cycle);
            if (!runTraced) continue;
            profiler.setEnabled(true);
            runTraced(traced, cycle);
            profiler.setEnabled(false);
        }
        raw.set("untraced", passJson(untraced.result, false));
        if (runTraced) {
            raw.set("traced", passJson(traced.result, true));
            raw.set("spans", spanTotalsJson(traced.spans.spans()));
            raw.set("exact", compareExact(untraced.result, traced.result));
            if (!spansPath.empty() && !writeSpans(spansPath, traced.spans.spans())) {
                std::fprintf(stderr, "cannot write %s\n", spansPath.c_str());
                return 1;
            }
        }
    } catch (const std::exception& error) {
        std::fprintf(stderr, "perfbench: %s\n", error.what());
        return 1;
    }
    raw.set("peak_rss_kib", number(peakRssKib()));

    std::ofstream out{rawPath};
    out << raw.serialize() << "\n";
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", rawPath.c_str());
        return 1;
    }
    return 0;
}

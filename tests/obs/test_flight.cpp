// FlightRecorder: the always-on post-mortem ring. Pins the ring
// semantics (wraparound, truncation, capacity), the dump-once
// contract, the JSON dump shape (it must parse with util::JsonValue —
// obsq reads these), and the fatal-signal dump path.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/flight.hpp"
#include "obs/registry.hpp"
#include "util/json.hpp"

namespace onelab::obs {
namespace {

TEST(FlightRecorder, CapacityAndEntryLayoutArePinned) {
    // The post-mortem budget: 4096 fixed-size records, text truncated
    // into inline fields so note() never allocates. Changing any of
    // these changes the resident footprint and what a dump can hold —
    // do it deliberately.
    EXPECT_EQ(FlightRecorder::kDefaultCapacity, 4096u);
    EXPECT_EQ(FlightEntry::kCategoryBytes, 24u);
    EXPECT_EQ(FlightEntry::kNameBytes, 48u);
    EXPECT_EQ(FlightEntry::kDetailBytes, 104u);
    FlightRecorder recorder;
    EXPECT_EQ(recorder.capacity(), FlightRecorder::kDefaultCapacity);
    EXPECT_TRUE(recorder.enabled()) << "the black box must be on by default";
}

TEST(FlightRecorder, RingWrapsKeepingTheNewestEntries) {
    FlightRecorder recorder{8};
    for (int i = 0; i < 20; ++i)
        recorder.note(FlightKind::event, "test", "entry", "", i);
    EXPECT_EQ(recorder.entryCount(), 8u);
    EXPECT_EQ(recorder.dropped(), 12u);
    EXPECT_EQ(recorder.recorded(), 20u);
    const std::vector<FlightEntry> entries = recorder.entries();
    ASSERT_EQ(entries.size(), 8u);
    // Oldest first: values 12..19 survive.
    for (std::size_t i = 0; i < entries.size(); ++i)
        EXPECT_EQ(entries[i].value, std::int64_t(12 + i));
}

TEST(FlightRecorder, TruncatesTextIntoInlineFieldsWithoutAllocating) {
    FlightRecorder recorder{4};
    const std::string longText(300, 'x');
    recorder.note(FlightKind::log, longText, longText, longText);
    const FlightEntry entry = recorder.entries().at(0);
    EXPECT_EQ(entry.categoryView().size(), FlightEntry::kCategoryBytes - 1);
    EXPECT_EQ(entry.nameView().size(), FlightEntry::kNameBytes - 1);
    EXPECT_EQ(entry.detailView().size(), FlightEntry::kDetailBytes - 1);
    EXPECT_EQ(entry.categoryView(), std::string(FlightEntry::kCategoryBytes - 1, 'x'));
}

TEST(FlightRecorder, RecordsEmptyTextAsEmptyFields) {
    // A default string_view has a null data(); copying zero bytes
    // from it must stay defined (the sanitizer CI leg runs this).
    FlightRecorder recorder{4};
    recorder.note(FlightKind::event, std::string_view{}, std::string_view{});
    recorder.noteMetric(std::string_view{}, 7);
    const std::vector<FlightEntry> entries = recorder.entries();
    ASSERT_EQ(entries.size(), 2u);
    for (const FlightEntry& entry : entries) {
        EXPECT_TRUE(entry.nameView().empty());
        EXPECT_TRUE(entry.detailView().empty());
    }
    EXPECT_TRUE(entries[0].categoryView().empty());
    EXPECT_EQ(entries[1].value, 7);
}

TEST(FlightRecorder, DisabledRecorderDropsNotesAndHidesFromFeeders) {
    FlightRecorder recorder{4};
    FlightRecorder* previous = FlightRecorder::setCurrent(&recorder);
    recorder.setEnabled(false);
    EXPECT_EQ(FlightRecorder::currentIfEnabled(), nullptr);
    recorder.note(FlightKind::event, "test", "dropped");
    EXPECT_EQ(recorder.entryCount(), 0u);
    recorder.setEnabled(true);
    EXPECT_EQ(FlightRecorder::currentIfEnabled(), &recorder);
    FlightRecorder::setCurrent(previous);
}

TEST(FlightRecorder, ExportJsonParsesAndCarriesClockedEntries) {
    FlightRecorder recorder{8};
    std::int64_t simNowNs = 0;
    recorder.setClock([&simNowNs] { return simNowNs; });
    simNowNs = 1500000;
    recorder.noteTransition("supervise", "222880000000001", "healthy -> recovering");
    simNowNs = 2000000;
    recorder.noteMetric("fault.injected", 3);

    const auto doc = util::JsonValue::parse(recorder.exportJson("unit test"));
    ASSERT_TRUE(doc.ok()) << doc.error().message;
    EXPECT_EQ(doc.value().stringOr("reason", ""), "unit test");
    EXPECT_DOUBLE_EQ(doc.value().numberOr("dropped", -1.0), 0.0);
    const util::JsonValue* entries = doc.value().find("entries");
    ASSERT_NE(entries, nullptr);
    ASSERT_EQ(entries->array().size(), 2u);
    const util::JsonValue& first = entries->array()[0];
    EXPECT_EQ(first.stringOr("kind", ""), "transition");
    EXPECT_DOUBLE_EQ(first.numberOr("t_ns", 0.0), 1500000.0);
    EXPECT_EQ(first.stringOr("cat", ""), "supervise");
    EXPECT_EQ(first.stringOr("detail", ""), "healthy -> recovering");
    const util::JsonValue& second = entries->array()[1];
    EXPECT_EQ(second.stringOr("kind", ""), "metric");
    EXPECT_DOUBLE_EQ(second.numberOr("value", 0.0), 3.0);
}

TEST(FlightRecorder, RequestDumpFiresOncePerRun) {
    FlightRecorder recorder{8};
    recorder.note(FlightKind::event, "test", "breach");
    const std::string path = testing::TempDir() + "onelab_flight_once.json";
    std::remove(path.c_str());

    recorder.requestDump("before a path is set: silent no-op");
    EXPECT_EQ(recorder.dumps(), 0u);

    recorder.setDumpPath(path);
    recorder.requestDump("first breach");
    recorder.requestDump("second breach (same run)");
    EXPECT_EQ(recorder.dumps(), 1u) << "repeat triggers must not re-write the dump";

    const auto doc = util::JsonValue::parseFile(path);
    ASSERT_TRUE(doc.ok()) << doc.error().message;
    EXPECT_EQ(doc.value().stringOr("reason", ""), "first breach");

    // clear() re-arms the dump for the next run on the same recorder.
    recorder.clear();
    recorder.setDumpPath(path);
    recorder.note(FlightKind::event, "test", "breach2");
    recorder.requestDump("next run");
    EXPECT_EQ(recorder.dumps(), 1u);  // clear() zeroed the counter too
    const auto next = util::JsonValue::parseFile(path);
    ASSERT_TRUE(next.ok());
    EXPECT_EQ(next.value().stringOr("reason", ""), "next run");
    std::remove(path.c_str());
}

TEST(FlightRecorder, SyncMetricsDeltaSyncsIntoRegistry) {
    FlightRecorder recorder{2};
    Registry registry;
    registerFlightAndProfileMetricFamilies(registry);
    for (int i = 0; i < 5; ++i) recorder.note(FlightKind::event, "test", "n");
    recorder.syncMetrics(registry);
    EXPECT_EQ(registry.counter("recorder.entries").value(), 5u);
    EXPECT_EQ(registry.counter("recorder.dropped").value(), 3u);
    EXPECT_EQ(registry.gauge("recorder.buffered").value(), 2);
    // Re-syncing the same state must not double-count.
    recorder.syncMetrics(registry);
    EXPECT_EQ(registry.counter("recorder.entries").value(), 5u);
}

std::string readFile(const std::string& path) {
    std::ifstream in{path, std::ios::binary};
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

TEST(FlightRecorder, CrashDumpWritesTheExportJsonDocument) {
    // The signal-safe writer shares exportJson's serializer: a wrapped
    // ring far larger than the crash buffer, with text that needs JSON
    // escaping, must land byte for byte, and the dump path's missing
    // directories are created.
    FlightRecorder recorder;
    for (int i = 0; i < 5000; ++i) {
        const std::string detail = "quote\" \\ tab\t nl\n ctl\x01\x1f #" + std::to_string(i);
        recorder.note(FlightKind::log, "cat\"", "name\\", detail,
                      i % 3 == 0 ? -std::int64_t(i) * 1'000'000'007 : i);
    }
    const std::string dir = testing::TempDir() + "onelab_flight_crash_dir";
    std::filesystem::remove_all(dir);
    const std::string path = dir + "/nested/flight.json";
    recorder.setDumpPath(path);
    recorder.writeCrashDump(SIGSEGV);
    EXPECT_EQ(recorder.dumps(), 1u);
    const std::string expected = recorder.exportJson("fatal signal " + std::to_string(SIGSEGV));
    ASSERT_GT(expected.size(), 64u * 1024u);
    EXPECT_EQ(readFile(path), expected);
    std::filesystem::remove_all(dir);
}

using FlightRecorderDeathTest = ::testing::Test;

TEST(FlightRecorderDeathTest, FatalSignalDumpsTheBlackBox) {
    const std::string path = testing::TempDir() + "onelab_flight_crash.json";
    std::remove(path.c_str());
    installCrashDump();
    FlightRecorder& recorder = FlightRecorder::instance();
    recorder.clear();
    recorder.setDumpPath(path);
    recorder.note(FlightKind::event, "test", "about_to_crash", "last words");

    // The death-test child inherits the recorder and the signal
    // handlers; its abort must leave flight.json behind for the
    // parent to read.
    EXPECT_DEATH(std::abort(), "");

    const auto doc = util::JsonValue::parseFile(path);
    ASSERT_TRUE(doc.ok()) << "crash dump missing or unreadable: " << doc.error().message;
    EXPECT_NE(doc.value().stringOr("reason", "").find("fatal signal"), std::string::npos);
    const util::JsonValue* entries = doc.value().find("entries");
    ASSERT_NE(entries, nullptr);
    ASSERT_EQ(entries->array().size(), 1u);
    EXPECT_EQ(entries->array()[0].stringOr("name", ""), "about_to_crash");
    // The child's ring was this process's ring at the fork.
    EXPECT_EQ(readFile(path), recorder.exportJson("fatal signal " + std::to_string(SIGABRT)));
    std::remove(path.c_str());
    recorder.setDumpPath("");
    recorder.clear();
}

}  // namespace
}  // namespace onelab::obs

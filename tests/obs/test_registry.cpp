#include "obs/registry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <thread>

#include "obs/run_context.hpp"

namespace onelab::obs {
namespace {

TEST(RegistryTest, CounterIncrements) {
    Registry registry;
    Counter& counter = registry.counter("a.b.events");
    EXPECT_EQ(counter.value(), 0u);
    counter.inc();
    counter.inc(41);
    EXPECT_EQ(counter.value(), 42u);
}

TEST(RegistryTest, GaugeSetAndAdd) {
    Registry registry;
    Gauge& gauge = registry.gauge("net.queue.depth");
    gauge.set(100);
    gauge.add(-30);
    EXPECT_EQ(gauge.value(), 70);
    gauge.add(-100);
    EXPECT_EQ(gauge.value(), -30);  // signed: transient negatives survive
}

TEST(RegistryTest, SameNameSharesOneInstance) {
    Registry registry;
    Counter& first = registry.counter("shared");
    Counter& second = registry.counter("shared");
    EXPECT_EQ(&first, &second);
    first.inc();
    EXPECT_EQ(second.value(), 1u);
}

TEST(RegistryTest, KindCollisionThrows) {
    Registry registry;
    (void)registry.counter("x");
    EXPECT_THROW((void)registry.gauge("x"), std::logic_error);
    EXPECT_THROW((void)registry.histogram("x"), std::logic_error);
    (void)registry.gauge("y");
    EXPECT_THROW((void)registry.counter("y"), std::logic_error);
}

TEST(RegistryTest, HistogramLogScaleBucketBoundaries) {
    Registry registry;
    Histogram& h = registry.histogram("lat", HistogramSpec{1000.0, 2.0, 4});
    ASSERT_EQ(h.bucketCount(), 5u);  // 4 finite + overflow
    EXPECT_DOUBLE_EQ(h.bucketBound(0), 1000.0);
    EXPECT_DOUBLE_EQ(h.bucketBound(1), 2000.0);
    EXPECT_DOUBLE_EQ(h.bucketBound(2), 4000.0);
    EXPECT_DOUBLE_EQ(h.bucketBound(3), 8000.0);
    EXPECT_TRUE(std::isinf(h.bucketBound(4)));

    h.observe(500.0);     // <= 1000 -> bucket 0
    h.observe(1000.0);    // boundary is inclusive -> bucket 0
    h.observe(1500.0);    // bucket 1
    h.observe(1e9);       // overflow bucket
    EXPECT_EQ(h.bucketValue(0), 2u);
    EXPECT_EQ(h.bucketValue(1), 1u);
    EXPECT_EQ(h.bucketValue(2), 0u);
    EXPECT_EQ(h.bucketValue(4), 1u);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.sum(), 500.0 + 1000.0 + 1500.0 + 1e9);
}

TEST(RegistryTest, HistogramSpecFixedByFirstRegistration) {
    Registry registry;
    Histogram& first = registry.histogram("h", HistogramSpec{10.0, 2.0, 4});
    Histogram& again = registry.histogram("h", HistogramSpec{999.0, 3.0, 8});
    EXPECT_EQ(&first, &again);
    EXPECT_DOUBLE_EQ(again.bucketBound(0), 10.0);
    EXPECT_EQ(again.bucketCount(), 5u);
}

TEST(RegistryTest, ResetZeroesValuesKeepsRegistrations) {
    Registry registry;
    Counter& counter = registry.counter("c");
    Gauge& gauge = registry.gauge("g");
    Histogram& histogram = registry.histogram("h");
    counter.inc(7);
    gauge.set(9);
    histogram.observe(123.0);
    registry.reset();
    EXPECT_EQ(registry.size(), 3u);
    EXPECT_EQ(counter.value(), 0u);  // handed-out references stay valid
    EXPECT_EQ(gauge.value(), 0);
    EXPECT_EQ(histogram.count(), 0u);
    EXPECT_DOUBLE_EQ(histogram.sum(), 0.0);
}

TEST(RegistryTest, SnapshotIsNameSorted) {
    Registry registry;
    (void)registry.counter("zeta");
    (void)registry.counter("alpha");
    (void)registry.counter("mid");
    const auto samples = registry.snapshot();
    ASSERT_EQ(samples.size(), 3u);
    EXPECT_EQ(samples[0].name, "alpha");
    EXPECT_EQ(samples[1].name, "mid");
    EXPECT_EQ(samples[2].name, "zeta");
}

TEST(RegistryTest, SnapshotJsonShapeAndDeterminism) {
    Registry registry;
    registry.counter("events").inc(3);
    registry.gauge("depth").set(-5);
    registry.histogram("lat", HistogramSpec{1000.0, 2.0, 2}).observe(1500.0);
    const std::string json = registry.snapshotJson();
    EXPECT_NE(json.find("{\"metrics\":["), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"events\",\"type\":\"counter\",\"value\":3"),
              std::string::npos);
    EXPECT_NE(json.find("\"name\":\"depth\",\"type\":\"gauge\",\"value\":-5"),
              std::string::npos);
    EXPECT_NE(json.find("\"type\":\"histogram\",\"count\":1"), std::string::npos);
    EXPECT_NE(json.find("\"le\":\"inf\""), std::string::npos);
    // Byte-identical on repeat: the export is deterministic.
    EXPECT_EQ(json, registry.snapshotJson());
}

// Counters are single-writer: a registry belongs to one thread. Runs
// that execute in parallel (--jobs) each own an obs::RunContext, whose
// registry is the thread's Registry::instance(); concurrent runs must
// then count losslessly and never touch the process-wide registry.
TEST(RegistryTest, ConcurrentIncrementsAreLossless) {
    constexpr int kThreads = 4;
    constexpr int kPerThread = 20000;
    struct Totals {
        std::uint64_t counter = 0;
        std::uint64_t histogramCount = 0;
        double histogramSum = 0.0;
        bool privateRegistry = false;
    };
    std::vector<Totals> totals(kThreads);
    Registry* const processWide = &Registry::instance();
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&totals, processWide, t] {
            RunContext context;
            Registry& registry = Registry::instance();
            Counter& counter = registry.counter("hot");
            Histogram& histogram = registry.histogram("hist");
            for (int i = 0; i < kPerThread; ++i) {
                counter.inc();
                histogram.observe(500.0);
            }
            totals[t] = {counter.value(), histogram.count(), histogram.sum(),
                         &registry == &context.registry() && &registry != processWide};
        });
    for (std::thread& thread : threads) thread.join();
    for (const Totals& total : totals) {
        EXPECT_TRUE(total.privateRegistry);
        EXPECT_EQ(total.counter, std::uint64_t(kPerThread));
        EXPECT_EQ(total.histogramCount, std::uint64_t(kPerThread));
        EXPECT_DOUBLE_EQ(total.histogramSum, kPerThread * 500.0);
    }
    for (const MetricSample& sample : processWide->snapshot())
        EXPECT_NE(sample.name, "hot");
}

TEST(RegistryTest, ProcessWideInstanceIsStable) {
    EXPECT_EQ(&Registry::instance(), &Registry::instance());
}

TEST(NameLeaseTest, DuplicateLiveClaimThrows) {
    Registry registry;
    NameLease first{registry, "umts.bearer.222880000000001"};
    EXPECT_TRUE(first.held());
    EXPECT_THROW((NameLease{registry, "umts.bearer.222880000000001"}), std::logic_error);
    // A different prefix is fine — collisions are per-family, not global.
    NameLease other{registry, "umts.bearer.222880000000002"};
    EXPECT_TRUE(other.held());
}

TEST(NameLeaseTest, ReleaseAllowsReclaim) {
    Registry registry;
    NameLease lease{registry, "umts.bearer"};
    lease.release();
    EXPECT_FALSE(lease.held());
    lease.release();  // idempotent
    NameLease again{registry, "umts.bearer"};
    EXPECT_TRUE(again.held());
}

TEST(NameLeaseTest, DestructionReleasesClaim) {
    Registry registry;
    { NameLease lease{registry, "p"}; }
    NameLease again{registry, "p"};
    EXPECT_TRUE(again.held());
}

TEST(NameLeaseTest, MoveTransfersOwnership) {
    Registry registry;
    NameLease source{registry, "moved"};
    NameLease target{std::move(source)};
    EXPECT_FALSE(source.held());
    EXPECT_TRUE(target.held());
    EXPECT_THROW((NameLease{registry, "moved"}), std::logic_error);
    NameLease assigned;
    assigned = std::move(target);
    EXPECT_TRUE(assigned.held());
    assigned.release();
    NameLease again{registry, "moved"};
    EXPECT_TRUE(again.held());
}

}  // namespace
}  // namespace onelab::obs

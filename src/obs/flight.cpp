#include "obs/flight.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>

#include "obs/registry.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"

namespace onelab::obs {

namespace {

thread_local FlightRecorder* currentRecorder = nullptr;

/// Crash-dump target: the last recorder that was given a dump path.
/// Plain atomic pointer — the handler can only make a best-effort
/// attempt anyway, and the target outlives any run that set it.
std::atomic<FlightRecorder*> crashTarget{nullptr};

void copyTruncated(char* out, std::size_t capacity, std::string_view text) noexcept {
    const std::size_t n = std::min(text.size(), capacity - 1);
    // An empty view may carry a null data(); memcpy's source must not be.
    if (n != 0) std::memcpy(out, text.data(), n);
    out[n] = '\0';
}

/// flight.json sink for the crash dump: fills a caller-owned buffer
/// and write(2)s it out whenever it is full. Async-signal-safe.
class FdSink {
  public:
    FdSink(int fd, char* buffer, std::size_t capacity) noexcept
        : fd_(fd), buffer_(buffer), capacity_(capacity) {}

    void put(char c) noexcept {
        if (used_ == capacity_) flush();
        buffer_[used_++] = c;
    }
    void put(std::string_view text) noexcept {
        for (const char c : text) put(c);
    }

    /// Write out what is buffered; false once any write has failed.
    bool flush() noexcept {
        std::size_t done = 0;
        while (ok_ && done < used_) {
            const ssize_t n = ::write(fd_, buffer_ + done, used_ - done);
            if (n > 0)
                done += std::size_t(n);
            else if (n < 0 && errno == EINTR)
                continue;
            else
                ok_ = false;
        }
        used_ = 0;
        return ok_;
    }

  private:
    int fd_;
    char* buffer_;
    std::size_t capacity_;
    std::size_t used_ = 0;
    bool ok_ = true;
};

/// Decimal digits of `value` into the tail of `digits`; returns the
/// view of them.
std::string_view formatUnsigned(std::uint64_t value, char (&digits)[20]) noexcept {
    std::size_t at = sizeof digits;
    do {
        digits[--at] = char('0' + value % 10);
        value /= 10;
    } while (value != 0);
    return {digits + at, sizeof digits - at};
}

template <class Sink>
void putUnsigned(Sink& sink, std::uint64_t value) {
    char digits[20];
    sink.put(formatUnsigned(value, digits));
}

template <class Sink>
void putSigned(Sink& sink, std::int64_t value) {
    if (value < 0) sink.put('-');
    putUnsigned(sink, value < 0 ? 0 - std::uint64_t(value) : std::uint64_t(value));
}

}  // namespace

const char* flightKindName(FlightKind kind) noexcept {
    switch (kind) {
        case FlightKind::log: return "log";
        case FlightKind::span_begin: return "span_begin";
        case FlightKind::span_end: return "span_end";
        case FlightKind::event: return "event";
        case FlightKind::transition: return "transition";
        case FlightKind::metric: return "metric";
    }
    return "event";
}

FlightRecorder& FlightRecorder::instance() {
    if (currentRecorder) return *currentRecorder;
    static FlightRecorder recorder;
    return recorder;
}

FlightRecorder* FlightRecorder::setCurrent(FlightRecorder* recorder) noexcept {
    FlightRecorder* previous = currentRecorder;
    currentRecorder = recorder;
    return previous;
}

FlightRecorder* FlightRecorder::currentIfEnabled() noexcept {
    FlightRecorder& recorder = instance();
    return recorder.enabled_ ? &recorder : nullptr;
}

FlightRecorder::FlightRecorder(std::size_t capacity) {
    ring_.resize(std::max<std::size_t>(capacity, 1));
}

FlightRecorder::~FlightRecorder() {
    FlightRecorder* self = this;
    crashTarget.compare_exchange_strong(self, nullptr);
    if (currentRecorder == this) currentRecorder = nullptr;
}

void FlightRecorder::setDumpPath(std::string path) {
    dumpPath_ = std::move(path);
    dumped_ = false;
    if (dumpPath_.empty()) return;
    if (!crashBuffer_) crashBuffer_ = std::make_unique_for_overwrite<char[]>(kCrashBufferBytes);
    crashTarget.store(this);
}

void FlightRecorder::note(FlightKind kind, std::string_view category,
                          std::string_view name, std::string_view detail,
                          std::int64_t value) noexcept {
    if (!enabled_) return;
    FlightEntry& entry = ring_[head_];
    entry.kind = kind;
    entry.timeNs = clock_ ? clock_() : 0;
    entry.value = value;
    copyTruncated(entry.category, FlightEntry::kCategoryBytes, category);
    copyTruncated(entry.name, FlightEntry::kNameBytes, name);
    copyTruncated(entry.detail, FlightEntry::kDetailBytes, detail);
    head_ = (head_ + 1) % ring_.size();
    ++recorded_;
    if (size_ < ring_.size())
        ++size_;
    else
        ++dropped_;
}

std::vector<FlightEntry> FlightRecorder::entries() const {
    std::vector<FlightEntry> out;
    out.reserve(size_);
    // Oldest entry sits at head_ once the ring has wrapped, else at 0.
    const std::size_t start = size_ == ring_.size() ? head_ : 0;
    for (std::size_t i = 0; i < size_; ++i)
        out.push_back(ring_[(start + i) % ring_.size()]);
    return out;
}

void FlightRecorder::clear() noexcept {
    head_ = 0;
    size_ = 0;
    dropped_ = 0;
    recorded_ = 0;
    dumps_ = 0;
    dumpFailures_ = 0;
    dumped_ = false;
}

template <class Sink>
void FlightRecorder::writeJson(Sink& sink, std::string_view reason) const {
    sink.put("{\"reason\":");
    util::putJsonQuoted(sink, reason);
    sink.put(",\"dropped\":");
    putUnsigned(sink, dropped_);
    sink.put(",\"entries\":[");
    const std::size_t start = size_ == ring_.size() ? head_ : 0;
    for (std::size_t i = 0; i < size_; ++i) {
        const FlightEntry& entry = ring_[(start + i) % ring_.size()];
        if (i) sink.put(',');
        sink.put("{\"kind\":\"");
        sink.put(flightKindName(entry.kind));
        sink.put("\",\"t_ns\":");
        putSigned(sink, entry.timeNs);
        sink.put(",\"cat\":");
        util::putJsonQuoted(sink, entry.categoryView());
        sink.put(",\"name\":");
        util::putJsonQuoted(sink, entry.nameView());
        if (entry.detail[0] != '\0') {
            sink.put(",\"detail\":");
            util::putJsonQuoted(sink, entry.detailView());
        }
        if (entry.value != 0) {
            sink.put(",\"value\":");
            putSigned(sink, entry.value);
        }
        sink.put('}');
    }
    sink.put("]}\n");
}

std::string FlightRecorder::exportJson(std::string_view reason) const {
    std::string out;
    util::StringSink sink{out};
    writeJson(sink, reason);
    return out;
}

util::Result<void> FlightRecorder::dump(std::string_view reason, const std::string& path) {
    const std::filesystem::path target{path};
    if (target.has_parent_path()) {
        std::error_code ec;
        std::filesystem::create_directories(target.parent_path(), ec);
    }
    const std::string text = exportJson(reason);
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (!file) {
        ++dumpFailures_;
        return util::Error{util::Error::Code::io, "cannot write " + path};
    }
    const std::size_t written = std::fwrite(text.data(), 1, text.size(), file);
    std::fclose(file);
    if (written != text.size()) {
        ++dumpFailures_;
        return util::Error{util::Error::Code::io, "short write to " + path};
    }
    ++dumps_;
    return util::Result<void>{};
}

void FlightRecorder::writeCrashDump(int signal) noexcept {
    if (dumpPath_.empty() || !crashBuffer_) return;
    // Create the parent directories in the buffer's copy of the path.
    char* const scratch = crashBuffer_.get();
    if (dumpPath_.size() < kCrashBufferBytes) {
        std::memcpy(scratch, dumpPath_.c_str(), dumpPath_.size() + 1);
        for (std::size_t i = 1; i < dumpPath_.size(); ++i) {
            if (scratch[i] != '/') continue;
            scratch[i] = '\0';
            (void)::mkdir(scratch, 0777);
            scratch[i] = '/';
        }
    }
    const int fd = ::open(dumpPath_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
    if (fd < 0) {
        ++dumpFailures_;
        return;
    }
    char reason[40] = "fatal signal ";
    char digits[20];
    const std::string_view number = formatUnsigned(std::uint64_t(signal < 0 ? 0 : signal), digits);
    std::memcpy(reason + 13, number.data(), number.size());
    FdSink sink{fd, scratch, kCrashBufferBytes};
    writeJson(sink, std::string_view{reason, 13 + number.size()});
    const bool written = sink.flush();
    ::close(fd);
    if (written)
        ++dumps_;
    else
        ++dumpFailures_;
}

void FlightRecorder::requestDump(std::string_view reason) noexcept {
    if (dumpPath_.empty() || dumped_) return;
    dumped_ = true;
    try {
        (void)dump(reason, dumpPath_);
    } catch (...) {
        ++dumpFailures_;  // best effort: a post-mortem must not throw
    }
}

void FlightRecorder::syncMetrics(Registry& registry) const {
    const auto syncCounter = [&registry](const char* name, std::uint64_t target) {
        Counter& counter = registry.counter(name);
        if (target > counter.value()) counter.inc(target - counter.value());
    };
    syncCounter("recorder.entries", recorded_);
    syncCounter("recorder.dropped", dropped_);
    syncCounter("recorder.dumps", dumps_);
    syncCounter("recorder.dump_failures", dumpFailures_);
    registry.gauge("recorder.buffered").set(std::int64_t(size_));
}

void registerFlightAndProfileMetricFamilies(Registry& registry) {
    for (const char* name : {"recorder.entries", "recorder.dropped", "recorder.dumps",
                             "recorder.dump_failures", "profile.exports",
                             "profile.scopes_dropped"})
        (void)registry.counter(name);
    (void)registry.gauge("recorder.buffered");
    (void)registry.gauge("profile.enabled");
}

// ------------------------------------------------------- crash dumps

namespace {

void crashHandler(int signal) {
    // Only async-signal-safe calls from here on: the crash may have
    // happened inside malloc or stdio.
    if (FlightRecorder* recorder = crashTarget.load()) recorder->writeCrashDump(signal);
    std::signal(signal, SIG_DFL);
    std::raise(signal);
}

}  // namespace

void installCrashDump() {
    static std::once_flag once;
    std::call_once(once, [] {
        for (const int sig : {SIGSEGV, SIGABRT, SIGFPE, SIGBUS, SIGILL})
            std::signal(sig, crashHandler);
    });
}

void installLogForwarding() {
    static std::once_flag once;
    std::call_once(once, [] {
        util::LogConfig::setForwarder(
            [](util::LogLevel level, std::string_view component,
               std::string_view message) {
                if (FlightRecorder* recorder = FlightRecorder::currentIfEnabled())
                    recorder->note(FlightKind::log, util::logLevelName(level),
                                   component, message);
            });
    });
}

}  // namespace onelab::obs

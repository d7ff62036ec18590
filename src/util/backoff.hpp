#pragma once

#include <cstdint>

#include "util/rand.hpp"

namespace onelab::util {

/// Capped exponential backoff with deterministic seeded jitter. Used
/// by the link supervisor's redial ladder, which re-tries against a
/// shared resource: N instances seeded from N derived streams spread
/// their retries instead of stampeding the SGSN in lockstep after a
/// shared-cell outage, while the whole schedule stays reproducible
/// for a given seed.
struct BackoffConfig {
    double initialSeconds = 2.0;
    double maxSeconds = 60.0;
    /// ± fraction applied to every step (0 disables jitter). A step's
    /// delay is base * (1 + u) with u uniform in [-jitter, +jitter).
    double jitterFraction = 0.2;
    std::uint64_t seed = 0;
};

class JitteredBackoff {
  public:
    explicit JitteredBackoff(BackoffConfig config);

    /// The next delay: doubles the base from initial to the cap, then
    /// applies this step's jitter draw. Every call advances both the
    /// attempt counter and the jitter stream.
    [[nodiscard]] double nextSeconds();

    /// Restart from the initial delay. The jitter stream keeps
    /// advancing (it is a sequence, not a function of the attempt), so
    /// repeated incidents do not replay the same offsets.
    void reset() noexcept { attempt_ = 0; }

    [[nodiscard]] int attempt() const noexcept { return attempt_; }
    [[nodiscard]] const BackoffConfig& config() const noexcept { return config_; }

  private:
    BackoffConfig config_;
    RandomStream rng_;
    int attempt_ = 0;
};

}  // namespace onelab::util

// Process-wide, seed-driven fault points for chaos testing.
//
// A fault point is a named hook compiled into a production code path:
//
//   FaultResult fault = PALEO_FAULT_POINT("subsystem.stage.hook");
//   if (fault.error()) return fault.status;
//
// Disarmed — the production state — a fault point costs ONE relaxed
// atomic load and a predictable branch: no lock, no map lookup, no
// allocation. Tests arm points by name with a FaultSpec describing
// WHAT to inject (a Status error, an artificial delay, a spurious
// wakeup, or a simulated allocation failure) and WHEN (exactly at the
// Nth hit, with seeded probability per hit, or both, optionally capped
// by max_fires). Probability draws come from an Rng seeded by the
// spec, so any failing chaos iteration replays from its seed alone.
//
// Site contract: every fault-point name appears at EXACTLY ONE site in
// src/ and is dotted kebab-case (tools/paleo_lint.py `fault-points`
// rule). A site honors the action kinds that make sense for it — a
// void site cannot surface a Status and simply ignores an error-action
// firing (the firing still counts in StatsFor and TotalInjected).
// Delays are applied inside Hit() itself, so every site transparently
// supports them.
//
// Thread-safe: Arm/Disarm/Hit/StatsFor may be called from any thread.
// The registry mutex is a leaf lock (Hit acquires nothing else), so
// fault points may sit inside arbitrary critical sections without
// creating lock-order cycles.

#ifndef PALEO_COMMON_FAULT_POINTS_H_
#define PALEO_COMMON_FAULT_POINTS_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace paleo {

/// \brief What an armed fault point injects when it fires.
enum class FaultAction : int {
  kNone = 0,
  /// The site surfaces `FaultSpec::code` as a Status error.
  kStatusError = 1,
  /// Hit() sleeps for `FaultSpec::delay_micros` before returning.
  kDelay = 2,
  /// Condition-wait sites skip one wait and re-check their predicate,
  /// exactly as a spurious hardware wakeup would.
  kSpuriousWakeup = 3,
  /// Allocation sites behave as if the allocation failed and take
  /// their degradation path.
  kAllocFailure = 4,
};

/// \brief What to inject and when. Armed per fault-point name.
struct FaultSpec {
  FaultAction action = FaultAction::kStatusError;

  /// kStatusError: the injected code and message (empty message =
  /// synthesized from the point name).
  StatusCode code = StatusCode::kInternal;
  std::string message;

  /// kDelay: how long Hit() sleeps when the point fires.
  int64_t delay_micros = 1000;

  /// Fire exactly at this 1-based hit count. 0 disables the trigger.
  int64_t at_hit = 0;
  /// Fire each hit with this probability (seeded draw). 0 disables.
  double probability = 0.0;
  /// Seeds the probability draws; same seed => same firing pattern.
  uint64_t seed = 0;
  /// Total fires allowed before the point goes quiet; -1 = unlimited.
  int64_t max_fires = -1;
};

/// \brief What a fault-point hit injected (kNone when disarmed or the
/// trigger did not fire). Sites honor the members relevant to them.
struct FaultResult {
  FaultAction action = FaultAction::kNone;
  /// Set for kStatusError firings; OK otherwise.
  Status status;

  bool fired() const { return action != FaultAction::kNone; }
  bool error() const { return action == FaultAction::kStatusError; }
  bool spurious_wakeup() const {
    return action == FaultAction::kSpuriousWakeup;
  }
  bool alloc_failure() const {
    return action == FaultAction::kAllocFailure;
  }
};

/// \brief The process-wide registry of armed fault points.
///
/// All static: fault points are compiled into shared library code, so
/// there is exactly one arming surface per process. Thread-safe (see
/// file comment).
class FaultPoints {
 public:
  /// Per-point counters since arming (reset by re-Arm / Disarm).
  struct PointStats {
    int64_t hits = 0;
    int64_t fires = 0;
  };

  /// True when at least one fault point is armed anywhere. The macro's
  /// fast path: one relaxed atomic load. relaxed: a stale answer only
  /// defers or wastes one registry probe; the registry mutex is the
  /// real synchronization.
  static bool AnyArmed() {
    return armed_count_.load(std::memory_order_relaxed) > 0;
  }

  /// Evaluates the armed spec for `name` (if any) against its trigger
  /// and returns what fired. Called via PALEO_FAULT_POINT, not
  /// directly, so the disarmed fast path stays a single load.
  static FaultResult Hit(const char* name);

  /// Arms (or re-arms, resetting counters) the named point.
  static void Arm(const std::string& name, FaultSpec spec);
  static void Disarm(const std::string& name);
  static void DisarmAll();

  /// Counters for an armed point; zeros when not armed.
  static PointStats StatsFor(const std::string& name);

  /// Process-lifetime count of fired injections, across all points.
  /// relaxed: pure tally, sampled by tests at quiescence.
  static int64_t TotalInjected() {
    return total_injected_.load(std::memory_order_relaxed);
  }

 private:
  struct Registry;
  static Registry& GetRegistry();

  // atomic: armed_count_ is the lock-free fast-path hint and
  // total_injected_ a pure tally.
  static std::atomic<int> armed_count_;
  static std::atomic<int64_t> total_injected_;
};

/// The fault-point site macro: one relaxed atomic load when nothing is
/// armed process-wide, a registry lookup only under active chaos.
#define PALEO_FAULT_POINT(point_name)          \
  (::paleo::FaultPoints::AnyArmed()            \
       ? ::paleo::FaultPoints::Hit(point_name) \
       : ::paleo::FaultResult{})

}  // namespace paleo

#endif  // PALEO_COMMON_FAULT_POINTS_H_

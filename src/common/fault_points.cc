#include "common/fault_points.h"

#include <chrono>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/mutex.h"
#include "common/random.h"
#include "common/thread_annotations.h"

namespace paleo {

namespace {

/// One armed fault point: its spec plus the mutable trigger state.
struct ArmedPoint {
  explicit ArmedPoint(FaultSpec s) : spec(std::move(s)), rng(spec.seed) {}

  FaultSpec spec;
  Rng rng;
  int64_t hits = 0;
  int64_t fires = 0;
};

}  // namespace

struct FaultPoints::Registry {
  Mutex mutex;
  std::unordered_map<std::string, ArmedPoint> points GUARDED_BY(mutex);
};

std::atomic<int> FaultPoints::armed_count_{0};
std::atomic<int64_t> FaultPoints::total_injected_{0};

FaultPoints::Registry& FaultPoints::GetRegistry() {
  // Meyers singleton: every thread that can hit a fault point is owned
  // by an object destroyed before static teardown (thread pools join
  // in their owners' destructors), so the registry outlives all users.
  static Registry registry;
  return registry;
}

FaultResult FaultPoints::Hit(const char* name) {
  FaultSpec spec;
  {
    Registry& registry = GetRegistry();
    MutexLock lock(registry.mutex);
    auto it = registry.points.find(name);
    if (it == registry.points.end()) return FaultResult{};
    ArmedPoint& point = it->second;
    ++point.hits;
    if (point.spec.max_fires >= 0 && point.fires >= point.spec.max_fires) {
      return FaultResult{};
    }
    const bool fire =
        (point.spec.at_hit > 0 && point.hits == point.spec.at_hit) ||
        (point.spec.probability > 0.0 &&
         point.rng.Bernoulli(point.spec.probability));
    if (!fire) return FaultResult{};
    ++point.fires;
    spec = point.spec;
  }
  // relaxed: pure tally.
  total_injected_.fetch_add(1, std::memory_order_relaxed);

  FaultResult result;
  result.action = spec.action;
  switch (spec.action) {
    case FaultAction::kStatusError:
      result.status =
          Status(spec.code, spec.message.empty()
                                ? std::string("injected fault at ") + name
                                : spec.message);
      break;
    case FaultAction::kDelay:
      if (spec.delay_micros > 0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(spec.delay_micros));
      }
      break;
    case FaultAction::kSpuriousWakeup:
    case FaultAction::kAllocFailure:
    case FaultAction::kNone:
      break;  // the site interprets the action
  }
  return result;
}

// relaxed: armed_count_ is a hint for the disarmed fast path
// (AnyArmed); the registry map itself is guarded by registry.mutex, and
// a stale hint only costs one extra Hit() that finds nothing armed.
void FaultPoints::Arm(const std::string& name, FaultSpec spec) {
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mutex);
  auto it = registry.points.find(name);
  if (it != registry.points.end()) {
    // Re-arm: replace the spec and reset the trigger state.
    registry.points.erase(it);
    armed_count_.fetch_sub(1, std::memory_order_relaxed);
  }
  registry.points.emplace(name, ArmedPoint(std::move(spec)));
  armed_count_.fetch_add(1, std::memory_order_relaxed);
}

void FaultPoints::Disarm(const std::string& name) {
  // relaxed: advisory fast-path hint; see Arm.
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mutex);
  if (registry.points.erase(name) > 0) {
    armed_count_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void FaultPoints::DisarmAll() {
  // relaxed: advisory fast-path hint; see Arm.
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mutex);
  armed_count_.fetch_sub(static_cast<int>(registry.points.size()),
                         std::memory_order_relaxed);
  registry.points.clear();
}

FaultPoints::PointStats FaultPoints::StatsFor(const std::string& name) {
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mutex);
  auto it = registry.points.find(name);
  if (it == registry.points.end()) return PointStats{};
  return PointStats{it->second.hits, it->second.fires};
}

}  // namespace paleo

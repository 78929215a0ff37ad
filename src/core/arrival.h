#ifndef YCSBT_CORE_ARRIVAL_H_
#define YCSBT_CORE_ARRIVAL_H_

#include <cstdint>
#include <string>

#include "common/properties.h"
#include "common/property_schema.h"
#include "common/random.h"
#include "common/status.h"

namespace ycsbt {
namespace core {

inline constexpr PropertyDecl kArrivalRate = DoubleProperty(
    "arrival.rate", 0.0, 0.0, kNoLimit,
    "aggregate offered arrivals/s; > 0 switches the runner to open loop");
// In Process order, for GetEnum.
inline constexpr std::string_view kArrivalProcesses[] = {"exponential",
                                                        "fixed"};
inline constexpr PropertyDecl kArrivalProcess = EnumProperty(
    "arrival.process", "exponential", kArrivalProcesses,
    "exponential = Poisson arrivals; fixed = evenly spaced, staggered slots");
/// Arrivals due while the backlog is full are dropped (ARRIVAL-DROP)
/// instead of queueing without bound.
inline constexpr PropertyDecl kArrivalMaxBacklog = UintProperty(
    "arrival.max_backlog", 1024, 1, kNoLimit, "pending-arrival cap per client thread");
// In Shape order, for GetEnum.
inline constexpr std::string_view kArrivalShapes[] = {
    "constant", "diurnal", "flash_crowd", "hotspot_shift"};
inline constexpr PropertyDecl kArrivalShape = EnumProperty(
    "arrival.shape", "constant", kArrivalShapes,
    "scripted modulation of the rate over the run");
/// Shape parameters; every rate is a multiple of `arrival.rate`.
inline constexpr PropertyDecl kDiurnalPeriodS = PositiveProperty(
    "arrival.diurnal.period_s", 60.0, "trough -> peak -> trough cycle length");
inline constexpr PropertyDecl kDiurnalLowFrac = DoubleProperty(
    "arrival.diurnal.low_frac", 0.25, 0.0, 1.0,
    "trough rate as a fraction of the peak (the run starts at the trough)");
inline constexpr PropertyDecl kFlashAtS =
    DoubleProperty("arrival.flash.at_s", 1.0, 0.0, kNoLimit, "flash-crowd onset");
inline constexpr PropertyDecl kFlashDurationS =
    PositiveProperty("arrival.flash.duration_s", 1.0, "how long the crowd stays");
inline constexpr PropertyDecl kFlashMultiplier =
    PositiveProperty("arrival.flash.multiplier", 4.0, "rate multiple during the flash");
inline constexpr PropertyDecl kShiftAtS = DoubleProperty(
    "arrival.hotspot_shift.at_s", 1.0, 0.0, kNoLimit,
    "moment traffic shifts onto this service");
inline constexpr PropertyDecl kShiftMultiplier = PositiveProperty(
    "arrival.hotspot_shift.multiplier", 2.0, "sustained rate multiple after the shift");
inline constexpr const PropertyDecl* kArrivalProperties[] = {
    &kArrivalRate, &kArrivalProcess, &kArrivalMaxBacklog, &kArrivalShape,
    &kDiurnalPeriodS, &kDiurnalLowFrac, &kFlashAtS, &kFlashDurationS, &kFlashMultiplier,
    &kShiftAtS, &kShiftMultiplier};

/// Open-loop arrival scheduling (DESIGN.md §13), from the `arrival.*`
/// properties declared above.
struct ArrivalOptions {
  enum class Process { kExponential, kFixed };
  enum class Shape { kConstant, kDiurnal, kFlashCrowd, kHotspotShift };

  double rate = kArrivalRate.Default<double>();
  Process process = Process::kExponential;
  uint64_t max_backlog = kArrivalMaxBacklog.Default<uint64_t>();
  Shape shape = Shape::kConstant;

  double diurnal_period_s = kDiurnalPeriodS.Default<double>();
  double diurnal_low_frac = kDiurnalLowFrac.Default<double>();
  double flash_at_s = kFlashAtS.Default<double>();
  double flash_duration_s = kFlashDurationS.Default<double>();
  double flash_multiplier = kFlashMultiplier.Default<double>();
  double shift_at_s = kShiftAtS.Default<double>();
  double shift_multiplier = kShiftMultiplier.Default<double>();

  /// True when the runner should schedule arrivals instead of running
  /// closed-loop.
  bool open_loop() const { return rate > 0.0; }

  /// Parses the `arrival.*` properties; InvalidArgument on a value its
  /// declaration rejects.
  static Status FromProperties(const Properties& props, ArrivalOptions* out);
};

/// The scripted arrival rate (arrivals/sec, across all threads) at `elapsed_s`
/// seconds into the run.  Pure function of the options, so every thread and
/// every test sees the same traffic script.
double ArrivalRateAt(const ArrivalOptions& options, double elapsed_s);

/// One client thread's deterministic arrival schedule: a stream of intended
/// transaction start times (nanosecond offsets from the thread's run start),
/// drawn from this thread's 1/`thread_count` share of the scripted rate.
///
/// Draws are seeded from the run seed and the thread id, so two same-seed
/// runs replay identical schedules — the intended-start timeline is part of
/// the experiment's definition, not a wall-clock artifact.  Time-varying
/// shapes are applied by evaluating the scripted rate at the schedule's own
/// position (an inhomogeneous process via per-gap rate evaluation).
class ArrivalSchedule {
 public:
  ArrivalSchedule(const ArrivalOptions& options, uint64_t seed, int thread_id,
                  int thread_count);

  /// Offset (ns from run start) of the next not-yet-consumed arrival.
  uint64_t PeekNs() const { return next_ns_; }

  /// Consumes the current arrival and draws the next one.
  void Pop();

 private:
  uint64_t DrawGapNs();

  ArrivalOptions options_;
  double thread_share_;  ///< this thread's fraction of the aggregate rate
  Random64 rng_;
  uint64_t next_ns_ = 0;
};

}  // namespace core
}  // namespace ycsbt

#endif  // YCSBT_CORE_ARRIVAL_H_

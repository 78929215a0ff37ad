#include "core/arrival.h"

#include <algorithm>
#include <cmath>

namespace ycsbt {
namespace core {

namespace {

/// Below this the scripted rate is clamped: a shape trough of exactly zero
/// would make the next gap infinite and wedge the schedule forever.
constexpr double kMinRate = 1e-3;

}  // namespace

Status ArrivalOptions::FromProperties(const Properties& props,
                                      ArrivalOptions* out) {
  Status s = CheckDeclaredProperties(props, kArrivalProperties);
  if (!s.ok()) return s;
  ArrivalOptions o;
  o.rate = kArrivalRate.Get<double>(props);
  o.process = kArrivalProcess.GetEnum<Process>(props);
  o.max_backlog = kArrivalMaxBacklog.Get<uint64_t>(props);
  o.shape = kArrivalShape.GetEnum<Shape>(props);
  o.diurnal_period_s = kDiurnalPeriodS.Get<double>(props);
  o.diurnal_low_frac = kDiurnalLowFrac.Get<double>(props);
  o.flash_at_s = kFlashAtS.Get<double>(props);
  o.flash_duration_s = kFlashDurationS.Get<double>(props);
  o.flash_multiplier = kFlashMultiplier.Get<double>(props);
  o.shift_at_s = kShiftAtS.Get<double>(props);
  o.shift_multiplier = kShiftMultiplier.Get<double>(props);
  *out = o;
  return Status::OK();
}

double ArrivalRateAt(const ArrivalOptions& options, double elapsed_s) {
  double multiplier = 1.0;
  switch (options.shape) {
    case ArrivalOptions::Shape::kConstant:
      break;
    case ArrivalOptions::Shape::kDiurnal: {
      // Raised cosine starting at the trough: low_frac at t=0, 1.0 at half a
      // period, back to low_frac at a full period.
      double phase = 2.0 * M_PI * (elapsed_s / options.diurnal_period_s);
      double wave = 0.5 * (1.0 - std::cos(phase));
      multiplier = options.diurnal_low_frac +
                   (1.0 - options.diurnal_low_frac) * wave;
      break;
    }
    case ArrivalOptions::Shape::kFlashCrowd:
      if (elapsed_s >= options.flash_at_s &&
          elapsed_s < options.flash_at_s + options.flash_duration_s) {
        multiplier = options.flash_multiplier;
      }
      break;
    case ArrivalOptions::Shape::kHotspotShift:
      // A neighbouring hotspot's traffic lands here mid-run and stays: a
      // sustained step, where the flash crowd is a transient burst.
      if (elapsed_s >= options.shift_at_s) multiplier = options.shift_multiplier;
      break;
  }
  return std::max(options.rate * multiplier, kMinRate);
}

ArrivalSchedule::ArrivalSchedule(const ArrivalOptions& options, uint64_t seed,
                                 int thread_id, int thread_count)
    : options_(options),
      thread_share_(1.0 / static_cast<double>(std::max(thread_count, 1))),
      rng_(seed ^ 0xA881Full ^ (static_cast<uint64_t>(thread_id) << 32)) {
  // Fixed-interval threads start phase-staggered so N threads produce an
  // evenly spaced aggregate stream, not N-wide synchronized bursts.
  if (options_.process == ArrivalOptions::Process::kFixed &&
      thread_count > 1 && options_.rate > 0.0) {
    next_ns_ = static_cast<uint64_t>(static_cast<double>(thread_id) * 1e9 /
                                     options_.rate);
  }
  next_ns_ += DrawGapNs();
}

uint64_t ArrivalSchedule::DrawGapNs() {
  double rate = ArrivalRateAt(options_, static_cast<double>(next_ns_) / 1e9) *
                thread_share_;
  double gap_s;
  if (options_.process == ArrivalOptions::Process::kFixed) {
    gap_s = 1.0 / rate;
  } else {
    // Inverse-CDF exponential draw; clamp the uniform away from 0 so the gap
    // stays finite.
    double u = rng_.NextDouble();
    if (u <= 0.0) u = 1e-12;
    gap_s = -std::log(u) / rate;
  }
  return static_cast<uint64_t>(gap_s * 1e9) + 1;  // ns; never a zero gap
}

void ArrivalSchedule::Pop() { next_ns_ += DrawGapNs(); }

}  // namespace core
}  // namespace ycsbt

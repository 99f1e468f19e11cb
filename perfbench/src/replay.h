// Load phases against the public IndexServer API: an open-loop paced phase
// on a seeded Poisson schedule, a closed-loop saturated phase, and the
// writer that reloads (and, with churn, rebuilds and rewrites) the served
// file beside them.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "sfc/curves/curve_factory.h"
#include "sfc/serve/server.h"

namespace perfbench {

/// A span recorded by the harness around one call into a layer; spans of
/// one query share its id.
struct Span {
  std::uint64_t id = 0;
  const char* name = "";
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
};

/// The served file's writer.  Every period it calls reload() on the served
/// path; with churn it first rebuilds the other dataset's index and writes
/// it over the path, so consecutive epochs alternate datasets.
class Writer {
 public:
  Writer(sfc::IndexServer& server, const sfc::SpaceFillingCurve& curve,
         sfc::CurveDescriptor descriptor, std::string path,
         std::vector<const std::vector<sfc::Point>*> datasets, bool churn,
         double period_s, std::uint64_t initial_epoch);

  /// Reloads once per period until `stop` is set.
  void run(const std::atomic<bool>& stop);

  /// The dataset the generation with this epoch serves (-1 if unknown).
  int dataset_of(std::uint64_t epoch) const;
  const std::vector<ReloadEvent>& events() const { return events_; }

 private:
  sfc::IndexServer& server_;
  const sfc::SpaceFillingCurve& curve_;
  sfc::CurveDescriptor descriptor_;
  std::string path_;
  std::vector<const std::vector<sfc::Point>*> datasets_;
  bool churn_;
  double period_s_;
  int current_ = 0;
  std::map<std::uint64_t, int> epoch_dataset_;
  std::vector<ReloadEvent> events_;
};

struct PhaseSpec {
  bool paced = true;          ///< open loop; false = closed loop
  double seconds = 0.0;
  std::uint32_t clients = 4;  ///< senders (paced) or clients (saturated)
  double qps = 0.0;           ///< paced arrival rate
  std::uint64_t seed = 0;     ///< paced arrival schedule
  std::uint32_t slot_offset = 0;
  Writer* writer = nullptr;   ///< runs on one more harness thread
  /// Traced run: every odd-numbered query records a client span before its
  /// clock stops, so its latency includes the tracing work and the even
  /// ones give the untraced latency of the same phase.
  bool trace_odd = false;
};

struct PhaseResult {
  std::vector<Record> records;
  std::vector<Span> spans;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;  ///< last answer
};

PhaseResult run_phase(sfc::IndexServer& server,
                      const std::vector<Query>& queries, const PhaseSpec& spec);

/// Latency of an answered record in microseconds: from its due time on a
/// paced schedule, from its send time otherwise.
inline double latency_us(const Record& r) {
  return static_cast<double>(r.done_ns - r.due_ns) / 1e3;
}

}  // namespace perfbench

#include "replay.h"

#include <sys/prctl.h>

#include <cmath>
#include <thread>

#include "sfc/index/point_index.h"
#include "sfc/serve/serve_error.h"
#include "sfc/store/index_store.h"
#include "workload.h"

namespace perfbench {

Writer::Writer(sfc::IndexServer& server, const sfc::SpaceFillingCurve& curve,
               sfc::CurveDescriptor descriptor, std::string path,
               std::vector<const std::vector<sfc::Point>*> datasets,
               bool churn, double period_s, std::uint64_t initial_epoch)
    : server_(server),
      curve_(curve),
      descriptor_(std::move(descriptor)),
      path_(std::move(path)),
      datasets_(std::move(datasets)),
      churn_(churn),
      period_s_(period_s) {
  epoch_dataset_[initial_epoch] = 0;
}

void Writer::run(const std::atomic<bool>& stop) {
  const std::int64_t start = now_ns();
  const auto period = static_cast<std::int64_t>(period_s_ * 1e9);
  for (std::int64_t tick = 1; !stop.load(); ++tick) {
    ReloadEvent ev;
    ev.dataset = current_;
    if (churn_) {
      ev.dataset = 1 - current_;
      {
        const sfc::PointIndex index =
            sfc::PointIndex::build(curve_, *datasets_[ev.dataset]);
        sfc::write_index_file(path_, index, descriptor_);
      }
      current_ = ev.dataset;
    }
    ev.start_ns = now_ns();
    try {
      ev.epoch = server_.reload(path_);
    } catch (const std::exception&) {
      ev.ok = false;
    }
    ev.end_ns = now_ns();
    if (ev.ok) epoch_dataset_[ev.epoch] = ev.dataset;
    events_.push_back(ev);
    // Wait for the next period boundary, waking often enough to notice the
    // end of the phase.
    const std::int64_t next = start + tick * period;
    while (!stop.load() && now_ns() < next) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
}

int Writer::dataset_of(std::uint64_t epoch) const {
  auto it = epoch_dataset_.find(epoch);
  return it == epoch_dataset_.end() ? -1 : it->second;
}

namespace {

/// Seeded Poisson arrival offsets (ns from phase start) covering `seconds`.
std::vector<std::int64_t> arrival_schedule(double qps, double seconds,
                                           std::uint64_t seed) {
  SplitMix rng{seed};
  std::vector<std::int64_t> offsets;
  offsets.reserve(static_cast<std::size_t>(qps * seconds * 1.1) + 16);
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-rng.unit()) / qps;
    if (t >= seconds) break;
    offsets.push_back(static_cast<std::int64_t>(t * 1e9));
  }
  return offsets;
}

/// Sends one query and fills the record.  The clock stops before the
/// answer is digested; with `spans`, after the query's client span has been
/// recorded into it.
void serve_one(sfc::IndexServer& server, const Query& q, Record& rec,
               std::vector<Span>* spans) {
  auto stop_clock = [&] {
    if (spans != nullptr) {
      spans->push_back({rec.seq, q.knn ? "client.knn" : "client.range",
                        rec.sent_ns, now_ns()});
    }
    rec.done_ns = now_ns();
  };
  try {
    if (q.knn) {
      sfc::ServedKnn a = server.knn_query_served(q.p, q.k);
      stop_clock();
      rec.epoch = a.epoch;
      rec.digest = digest_knn(a.result.neighbors);
    } else {
      sfc::ServedRange a = server.range_query_served(q.box());
      stop_clock();
      rec.epoch = a.epoch;
      rec.digest = digest_range(a.result.ids);
    }
  } catch (const sfc::ServerOverloadError&) {
    stop_clock();
    rec.outcome = Outcome::kShed;
  } catch (const sfc::ServerTimeoutError&) {
    stop_clock();
    rec.outcome = Outcome::kTimedOut;
  } catch (const std::exception&) {
    stop_clock();
    rec.outcome = Outcome::kError;
  }
}

}  // namespace

PhaseResult run_phase(sfc::IndexServer& server,
                      const std::vector<Query>& queries,
                      const PhaseSpec& spec) {
  const std::vector<std::int64_t> schedule =
      spec.paced ? arrival_schedule(spec.qps, spec.seconds, spec.seed)
                 : std::vector<std::int64_t>{};
  const std::uint32_t threads = spec.clients + (spec.writer ? 1 : 0);
  std::vector<std::vector<Record>> records(threads);
  std::vector<std::vector<Span>> spans(threads);
  std::atomic<std::uint64_t> next{0};
  std::atomic<bool> stop{false};
  std::atomic<std::uint32_t> active{spec.clients};

  PhaseResult out;
  out.start_ns = now_ns();
  const std::int64_t start = out.start_ns;
  const std::int64_t end =
      start + static_cast<std::int64_t>(spec.seconds * 1e9);

  run_threads(threads, [&](std::uint32_t t) {
    if (t == spec.clients) {
      spec.writer->run(stop);
      return;
    }
    // Wake paced senders close to their due times.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    std::vector<Record>& mine = records[t];
    mine.reserve(1 << 16);
    if (spec.trace_odd) spans[t].reserve(1 << 15);
    for (;;) {
      const std::uint64_t i = next.fetch_add(1);
      Record rec;
      rec.seq = i;
      if (spec.paced) {
        if (i >= schedule.size()) break;
        rec.due_ns = start + schedule[i];
        if (rec.due_ns >= end) break;
        std::this_thread::sleep_until(Clock::time_point(
            std::chrono::nanoseconds(rec.due_ns)));
        rec.sent_ns = now_ns();
      } else {
        rec.sent_ns = rec.due_ns = now_ns();
        if (rec.sent_ns >= end) break;
      }
      rec.slot = static_cast<std::uint32_t>((spec.slot_offset + i) %
                                            queries.size());
      serve_one(server, queries[rec.slot], rec,
                spec.trace_odd && (i & 1) != 0 ? &spans[t] : nullptr);
      mine.push_back(rec);
    }
    // The last sender to finish ends the writer.
    if (active.fetch_sub(1) == 1) stop.store(true);
  });

  out.end_ns = start;
  for (std::uint32_t t = 0; t < threads; ++t) {
    for (const Record& r : records[t]) {
      out.end_ns = std::max(out.end_ns, r.done_ns);
      out.records.push_back(r);
    }
    out.spans.insert(out.spans.end(), spans[t].begin(), spans[t].end());
  }
  return out;
}

}  // namespace perfbench

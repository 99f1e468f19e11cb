// serve_bench: one workload of the serving benchmark.
//
//   serve_bench --workload NAME --seed N --seconds S --trace 0|1
//               --work-dir DIR [workload settings, see parse_args]
//
// Builds an index from seeded points, writes it, serves it through the
// public IndexServer API, replays a paced (open-loop) and a saturated
// (closed-loop) phase, checks every answer, and prints a table followed by
// one JSON result line.  --trace 1 additionally times each
// layer's public entry points from this harness and reports the per-layer
// metrics instead of the end-to-end ones.  Exits 1 if any answer is wrong
// or any query failed.
#include <sys/prctl.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "layers.h"
#include "replay.h"
#include "sfc/index/point_index.h"
#include "sfc/store/index_store.h"
#include "workload.h"

namespace perfbench {
namespace {

Settings parse_args(int argc, char** argv) {
  Settings s;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    auto u32 = [&] { return static_cast<std::uint32_t>(std::stoul(v)); };
    if (flag == "--workload") s.workload = v;
    else if (flag == "--seed") s.seed = std::stoull(v);
    else if (flag == "--seconds") s.seconds = std::stod(v);
    else if (flag == "--trace") s.trace = v == "1";
    else if (flag == "--work-dir") s.work_dir = v;
    else if (flag == "--points") s.points = std::stoull(v);
    else if (flag == "--side") s.side = u32();
    else if (flag == "--box-extent") s.box_extent = u32();
    else if (flag == "--knn-percent") s.knn_percent = u32();
    else if (flag == "--pool") s.pool = u32();
    else if (flag == "--paced-qps") s.paced_qps = std::stod(v);
    else if (flag == "--churn") s.churn = v == "1";
    else if (flag == "--reload-period") s.reload_period_s = std::stod(v);
    else throw std::invalid_argument("unknown flag " + flag);
  }
  s.threads = std::thread::hardware_concurrency();
  if (s.workload.empty() || s.work_dir.empty() || s.points == 0 ||
      s.seconds <= 0.0 || s.threads < 2 || s.box_extent == 0 ||
      s.box_extent > s.side || s.pool == 0 || s.reload_period_s <= 0.0) {
    throw std::invalid_argument("incomplete or invalid workload settings");
  }
  return s;
}

/// Distinct seeds for each input stream, all derived from --seed.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  SplitMix m{seed * 0x100000001b3ULL + stream};
  return m.next();
}

std::vector<double> latencies(const PhaseResult& phase) {
  std::vector<double> v;
  for (const Record& r : phase.records) {
    if (r.outcome == Outcome::kAnswered) v.push_back(latency_us(r));
  }
  return v;
}

/// A timed phase's latency and throughput, robust to the host's short
/// stalls and slow stretches.  The phase runs as kBlocks blocks spread over
/// the run; each block is cut into equal windows of due time, as many as
/// leave each window about kWindowAnswers answers (a window's p90 has 25
/// beyond it), and each figure is the median over all windows of that
/// window's value.  The paced p90 and the p99s are only printed: on a shared
/// host they swing several-fold between runs.
struct PhaseStats {
  double p50_us = 0.0;
  double p90_us = 0.0;
  double qps = 0.0;
  std::size_t windows = 0;
  double whole_p99_us = 0.0;  ///< p99 over the whole phase
  double max_us = 0.0;
};

PhaseStats phase_stats(const std::vector<PhaseResult>& blocks,
                       double block_seconds) {
  constexpr std::size_t kWindowAnswers = 250;
  PhaseStats st;
  std::vector<double> all, p50, p90, qps;
  for (const PhaseResult& block : blocks) {
    const std::vector<double> answered = latencies(block);
    all.insert(all.end(), answered.begin(), answered.end());
    const std::size_t windows =
        std::max<std::size_t>(1, answered.size() / kWindowAnswers);
    const double window_ns =
        block_seconds * 1e9 / static_cast<double>(windows);
    std::vector<std::vector<double>> lat(windows);
    for (const Record& r : block.records) {
      if (r.outcome != Outcome::kAnswered) continue;
      const auto w = static_cast<std::size_t>(
          static_cast<double>(r.due_ns - block.start_ns) / window_ns);
      lat[std::min(w, windows - 1)].push_back(latency_us(r));
    }
    for (const std::vector<double>& v : lat) {
      p50.push_back(percentile(v, 50.0));
      p90.push_back(percentile(v, 90.0));
      qps.push_back(static_cast<double>(v.size()) * 1e9 / window_ns);
    }
    st.windows += windows;
  }
  st.p50_us = percentile(p50, 50.0);
  st.p90_us = percentile(p90, 50.0);
  st.qps = percentile(qps, 50.0);
  st.whole_p99_us = percentile(all, 99.0);
  st.max_us = percentile(all, 100.0);
  return st;
}

/// Every record and span of a phase's blocks.
PhaseResult merged(const std::vector<PhaseResult>& blocks) {
  PhaseResult out;
  for (const PhaseResult& b : blocks) {
    out.records.insert(out.records.end(), b.records.begin(), b.records.end());
    out.spans.insert(out.spans.end(), b.spans.begin(), b.spans.end());
  }
  return out;
}

std::vector<double> lateness_us(const PhaseResult& phase) {
  std::vector<double> v;
  for (const Record& r : phase.records) {
    v.push_back(static_cast<double>(r.sent_ns - r.due_ns) / 1e3);
  }
  return v;
}

/// Latency of paced queries in flight while a reload() call ran.
std::vector<double> overlap_latencies(const PhaseResult& phase,
                                      const std::vector<ReloadEvent>& reloads) {
  std::vector<double> v;
  for (const Record& r : phase.records) {
    if (r.outcome != Outcome::kAnswered) continue;
    for (const ReloadEvent& e : reloads) {
      if (r.sent_ns <= e.end_ns && r.done_ns >= e.start_ns) {
        v.push_back(latency_us(r));
        break;
      }
    }
  }
  return v;
}

using NamedPhases =
    std::vector<std::pair<std::string, const PhaseResult*>>;

void write_spans(const std::string& path, const NamedPhases& phases,
                 const std::vector<Span>& extra, std::int64_t origin) {
  std::ofstream f(path);
  f << "{\"traceEvents\":[\n";
  bool first = true;
  auto emit = [&](std::uint64_t id, const std::string& name, std::int64_t t0,
                  std::int64_t t1) {
    f << (first ? "" : ",\n") << "{\"name\":\"" << name
      << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << (id >> 40)
      << ",\"ts\":" << static_cast<double>(t0 - origin) / 1e3
      << ",\"dur\":" << static_cast<double>(t1 - t0) / 1e3
      << ",\"args\":{\"id\":" << id << "}}";
    first = false;
  };
  for (std::size_t p = 0; p < phases.size(); ++p) {
    const PhaseResult& ph = *phases[p].second;
    for (const Record& r : ph.records) {
      emit((p << 32) + r.seq, phases[p].first, r.due_ns, r.done_ns);
    }
    for (const Span& s : ph.spans) {
      emit((p << 32) + s.id, s.name, s.t0_ns, s.t1_ns);
    }
  }
  for (const Span& s : extra) emit(s.id, s.name, s.t0_ns, s.t1_ns);
  f << "\n]}\n";
}

int run(const Settings& s) {
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::filesystem::create_directories(s.work_dir);
  const std::string path = s.work_dir + "/" + s.workload + ".sfcidx";

  sfc::CurveDescriptor desc;
  desc.family = "hilbert";
  desc.dim = 2;
  desc.side = s.side;
  const sfc::CurvePtr curve = sfc::make_curve(desc);

  std::vector<std::vector<sfc::Point>> datasets;
  datasets.push_back(make_points(s.points, s.side, stream_seed(s.seed, 1)));
  if (s.churn) {
    datasets.push_back(make_points(s.points, s.side, stream_seed(s.seed, 2)));
  }

  // Set-up: points in memory -> build -> write -> serving (verified open).
  // Without churn nothing reloads under load, so the reload metrics come
  // from one reload of the fresh file after each set-up.  Every workload
  // is served with the server's defaults: one shard, the default window.
  std::vector<double> setup, reload_ms;
  std::unique_ptr<sfc::IndexServer> server;
  for (std::uint32_t r = 0; r < kSetupRepeats; ++r) {
    server.reset();
    std::optional<sfc::PointIndex> index;
    const std::int64_t t0 = now_ns();
    index.emplace(sfc::PointIndex::build(*curve, datasets[0]));
    sfc::write_index_file(path, *index, desc);
    server = std::make_unique<sfc::IndexServer>(path);
    const std::int64_t t1 = now_ns();
    setup.push_back(static_cast<double>(t1 - t0) / 1e9);
    if (!s.churn) {
      server->reload(path);
      reload_ms.push_back(static_cast<double>(now_ns() - t1) / 1e6);
    }
  }
  const double bytes_per_row =
      static_cast<double>(std::filesystem::file_size(path)) /
      static_cast<double>(s.points);
  const std::uint64_t initial_epoch = server->generation()->epoch();

  // Inputs and the answers every served query must reproduce.
  const std::vector<Query> queries =
      make_queries(s, s.pool, stream_seed(s.seed, 3));
  std::vector<std::vector<std::uint64_t>> refs;
  std::uint64_t brute_wrong = 0;
  std::vector<std::uint32_t> sample;
  {
    SplitMix pick{stream_seed(s.seed, 4)};
    for (int i = 0; i < 32; ++i) {
      sample.push_back(static_cast<std::uint32_t>(pick.below(queries.size())));
    }
  }
  {
    const auto gen = server->generation();
    const sfc::IndexColumnsView& view = gen->sharded().base();
    refs.push_back(reference_digests(view, queries, s.threads));
    brute_wrong += brute_force_mismatches(view, *curve, datasets[0], queries,
                                          sample, s.threads);
  }
  if (s.churn) {
    const std::string other = s.work_dir + "/" + s.workload + ".other.sfcidx";
    {
      const sfc::PointIndex index = sfc::PointIndex::build(*curve, datasets[1]);
      sfc::write_index_file(other, index, desc);
    }
    const sfc::MappedIndex mapped = sfc::MappedIndex::open(other);
    refs.push_back(reference_digests(mapped.view(), queries, s.threads));
    brute_wrong += brute_force_mismatches(mapped.view(), *curve, datasets[1],
                                          queries, sample, s.threads);
    std::filesystem::remove(other);
  }

  std::vector<const std::vector<sfc::Point>*> writer_sets;
  for (const auto& d : datasets) writer_sets.push_back(&d);
  Writer writer(*server, *curve, desc, path, writer_sets, s.churn,
                s.reload_period_s, initial_epoch);

  // Warm-up: caches fill and lazy set-up finishes before anything is timed.
  PhaseSpec warm;
  warm.paced = false;
  warm.seconds = std::min(1.0, 0.05 * s.seconds);
  warm.clients = s.threads;
  PhaseResult warmup = run_phase(*server, queries, warm);

  // Paced (open loop) and saturated (closed loop, every harness thread)
  // blocks alternate, so a slow stretch of the host lands in a few windows
  // of each phase rather than in all of one.  With churn, and in every
  // traced run, the writer takes the last harness thread during the paced
  // blocks.
  constexpr std::uint32_t kBlocks = 4;
  const bool writer_runs = s.churn || s.trace;
  const double paced_block_s = (s.churn ? 0.6 : 0.5) * s.seconds / kBlocks;
  const double sat_block_s = (s.churn ? 0.3 : 0.4) * s.seconds / kBlocks;
  std::vector<PhaseResult> paced_blocks, sat_blocks;
  std::uint64_t sat_executed = 0, sat_batches = 0;
  for (std::uint32_t b = 0; b < kBlocks; ++b) {
    PhaseSpec paced;
    paced.paced = true;
    paced.seconds = paced_block_s;
    paced.clients = writer_runs ? s.threads - 1 : s.threads;
    paced.qps = s.paced_qps;
    paced.seed = stream_seed(s.seed, 10 + b);
    paced.slot_offset = b * s.pool / kBlocks;
    paced.writer = writer_runs ? &writer : nullptr;
    paced.trace_odd = s.trace;
    paced_blocks.push_back(run_phase(*server, queries, paced));

    PhaseSpec sat;
    sat.paced = false;
    sat.seconds = sat_block_s;
    sat.clients = s.threads;
    sat.slot_offset = s.pool / 2 + b * s.pool / kBlocks;
    const sfc::ServerHealth before = server->health();
    sat_blocks.push_back(run_phase(*server, queries, sat));
    const sfc::ServerHealth after = server->health();
    sat_executed += after.executed - before.executed;
    sat_batches += after.batches_dispatched - before.batches_dispatched;
  }
  const PhaseResult paced_run = merged(paced_blocks);
  const PhaseResult sat_run = merged(sat_blocks);

  // Check every answer against the dataset of the epoch that served it.
  std::uint64_t attempted = 0, shed = 0, timed_out = 0, errors = 0, wrong = 0;
  auto check = [&](const PhaseResult& ph) {
    for (const Record& r : ph.records) {
      ++attempted;
      if (r.outcome == Outcome::kShed) ++shed;
      else if (r.outcome == Outcome::kTimedOut) ++timed_out;
      else if (r.outcome == Outcome::kError) ++errors;
      else {
        const int d = writer.dataset_of(r.epoch);
        if (d < 0 || refs[static_cast<std::size_t>(d)][r.slot] != r.digest) {
          ++wrong;
        }
      }
    }
  };
  check(warmup);
  check(paced_run);
  check(sat_run);
  std::uint64_t failed_reloads = 0;
  for (const ReloadEvent& e : writer.events()) {
    failed_reloads += e.ok ? 0 : 1;
    if (s.churn) {
      reload_ms.push_back(static_cast<double>(e.end_ns - e.start_ns) / 1e6);
    }
  }

  const PhaseStats paced_st = phase_stats(paced_blocks, paced_block_s);
  const PhaseStats sat_st = phase_stats(sat_blocks, sat_block_s);
  const Tail reload_tail = tail_of(reload_ms);

  MetricMap e2e;
  e2e["setup_s"] = {percentile(setup, 50.0), "s"};
  e2e["paced_p50_us"] = {paced_st.p50_us, "us"};
  e2e["sat_qps"] = {sat_st.qps, "1/s"};
  e2e["sat_p90_us"] = {sat_st.p90_us, "us"};
  e2e["bytes_per_row"] = {bytes_per_row, "B"};
  e2e["reload_p50_ms"] = {percentile(reload_ms, 50.0), "ms"};
  e2e["reload_tail_ms"] = {reload_tail.value, "ms"};

  // Traced run: per-layer split of the same workload.
  MetricMap layers;
  std::vector<Span> probe_spans;
  if (s.trace) {
    const std::vector<Query> probes =
        make_queries([&] {
          Settings p = s;
          p.knn_percent = 50;  // every workload reports both query layers
          return p;
        }(), 256, stream_seed(s.seed, 7));
    // The churn writer leaves either dataset served, depending on how many
    // cycles fitted in the run.  Probe dataset 0, so that the per-query
    // counts repeat exactly for a seed.
    if (writer.dataset_of(server->generation()->epoch()) != 0) {
      const sfc::PointIndex index = sfc::PointIndex::build(*curve, datasets[0]);
      sfc::write_index_file(path, index, desc);
      server->reload(path);
    }
    probe_query_layers(*server, probes, layers, probe_spans, &wrong);
    attempted += probes.size();
    probe_setup_layers(*curve, desc, datasets[0],
                       s.work_dir + "/" + s.workload + ".probe.sfcidx",
                       layers, probe_spans);
    probe_swap(*server, path, layers, probe_spans);

    layers["serve.batch_mean"] = {
        static_cast<double>(sat_executed) /
            static_cast<double>(std::max<std::uint64_t>(1, sat_batches)),
        "count"};
    layers["gen.overlap_p99_us"] = {
        percentile(overlap_latencies(paced_run, writer.events()), 99.0),
        "us"};
    layers["harness.late_p99_us"] = {percentile(lateness_us(paced_run), 99.0),
                                     "us"};
    // Odd-numbered paced queries recorded a client span before their clock
    // stopped, even ones did not: the same phase, traced and untraced.
    std::vector<double> traced, untraced;
    for (const Record& r : paced_run.records) {
      if (r.outcome != Outcome::kAnswered) continue;
      (r.seq & 1) ? traced.push_back(latency_us(r))
                  : untraced.push_back(latency_us(r));
    }
    layers["harness.trace_overhead"] = {
        percentile(traced, 50.0) / percentile(untraced, 50.0) - 1.0, "ratio"};

    NamedPhases phases = {{"served.warmup", &warmup}};
    for (std::uint32_t b = 0; b < kBlocks; ++b) {
      phases.push_back({"served.paced", &paced_blocks[b]});
      phases.push_back({"served.saturated", &sat_blocks[b]});
    }
    std::vector<Span> reload_spans;
    for (std::size_t j = 0; j < writer.events().size(); ++j) {
      const ReloadEvent& e = writer.events()[j];
      reload_spans.push_back({(4ULL << 40) + j, "gen.reload", e.start_ns,
                              e.end_ns});
    }
    probe_spans.insert(probe_spans.end(), reload_spans.begin(),
                       reload_spans.end());
    write_spans(s.work_dir + "/spans-" + s.workload + ".json", phases,
                probe_spans, warmup.start_ns);
  }

  server.reset();
  std::filesystem::remove(path);

  const std::uint64_t failed =
      shed + timed_out + errors + wrong + brute_wrong + failed_reloads;
  const bool correct = failed == 0 && !reload_ms.empty() &&
                       paced_st.qps > 0.0 && sat_st.qps > 0.0;

  // Human-readable table, then the result line.
  std::printf("workload %s seed %llu trace %d\n", s.workload.c_str(),
              static_cast<unsigned long long>(s.seed), s.trace ? 1 : 0);
  std::printf("  queries attempted %llu, shed %llu, timed out %llu, errors "
              "%llu, wrong %llu, brute-force mismatches %llu, failed reloads "
              "%llu, fail_ratio %.6g\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(shed),
              static_cast<unsigned long long>(timed_out),
              static_cast<unsigned long long>(errors),
              static_cast<unsigned long long>(wrong),
              static_cast<unsigned long long>(brute_wrong),
              static_cast<unsigned long long>(failed_reloads),
              static_cast<double>(failed) /
                  static_cast<double>(std::max<std::uint64_t>(1, attempted)));
  for (const auto& [label, st] : {std::pair{"paced", paced_st},
                                   std::pair{"saturated", sat_st}}) {
    std::printf("  %s phase: %zu windows, window-median p90 %.1f us, "
                "whole-phase p99 %.1f us, max %.1f us\n",
                label, st.windows, st.p90_us, st.whole_p99_us, st.max_us);
  }
  std::printf("  set-ups (s):");
  for (double v : setup) std::printf(" %.4f", v);
  std::printf("\n");
  std::printf("  reloads %zu (tail = p%.1f); paced generator lateness p99 "
              "%.1f us\n",
              reload_ms.size(), reload_tail.pct,
              percentile(lateness_us(paced_run), 99.0));
  for (const auto& [name, vu] : e2e) {
    std::printf("  %-28s %14.4f %s\n", name.c_str(), vu.first,
                vu.second.c_str());
  }
  for (const auto& [name, vu] : layers) {
    std::printf("  %-28s %14.4f %s\n", name.c_str(), vu.first,
                vu.second.c_str());
  }

  const MetricMap& report = s.trace ? layers : e2e;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : report) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", vu.first);
    json += std::string(first ? "" : ", ") + "\"" + name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + vu.second + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve_bench: %s\n", e.what());
    return 2;
  }
}

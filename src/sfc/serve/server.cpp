#include "sfc/serve/server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iterator>
#include <optional>
#include <utility>

#include "sfc/obs/metrics.h"
#include "sfc/obs/span_trace.h"
#include "sfc/parallel/parallel_for.h"

namespace sfc {

namespace {

/// Registry handles for the serve layer, resolved once.  These mirror the
/// mutex-guarded ServerHealth counters into the process-wide registry so one
/// snapshot covers every IndexServer in the process.
struct ServeMetrics {
  MetricsRegistry::Counter accepted;
  MetricsRegistry::Counter rejected_overload;
  MetricsRegistry::Counter rejected_stopped;
  MetricsRegistry::Counter timed_out;
  MetricsRegistry::Counter executed;
  MetricsRegistry::Counter batches;
  MetricsRegistry::Counter range_queries;
  MetricsRegistry::Counter knn_queries;
  MetricsRegistry::Counter reloads;
  MetricsRegistry::Counter failed_reloads;
  MetricsRegistry::Counter degraded_partials;
  MetricsRegistry::Gauge queue_depth;
  MetricsRegistry::Histogram queue_wait_us;
  MetricsRegistry::Histogram execute_us;
  MetricsRegistry::Histogram batch_rows;
};

ServeMetrics& serve_metrics() {
  static ServeMetrics metrics{
      MetricsRegistry::global().counter("serve.accepted"),
      MetricsRegistry::global().counter("serve.rejected_overload"),
      MetricsRegistry::global().counter("serve.rejected_stopped"),
      MetricsRegistry::global().counter("serve.timed_out"),
      MetricsRegistry::global().counter("serve.executed"),
      MetricsRegistry::global().counter("serve.batches"),
      MetricsRegistry::global().counter("serve.range_queries"),
      MetricsRegistry::global().counter("serve.knn_queries"),
      MetricsRegistry::global().counter("serve.reloads"),
      MetricsRegistry::global().counter("serve.failed_reloads"),
      MetricsRegistry::global().counter("serve.degraded_partials"),
      MetricsRegistry::global().gauge("serve.queue_depth"),
      MetricsRegistry::global().histogram("serve.queue_wait_us"),
      MetricsRegistry::global().histogram("serve.execute_us"),
      MetricsRegistry::global().histogram("serve.batch_rows"),
  };
  return metrics;
}

}  // namespace

IndexServer::IndexServer(IndexColumnsView view, const ServerOptions& options)
    : generations_(IndexGeneration::wrap(view, options.shard_bits, 0)),
      options_(options) {
  if (options_.max_batch < 1) {
    throw Error("IndexServer: max_batch must be >= 1");
  }
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

IndexServer::IndexServer(const std::string& path, const ServerOptions& options)
    : generations_(IndexGeneration::open(path, options.shard_bits, 0,
                                         options.allow_degraded)),
      options_(options) {
  if (options_.max_batch < 1) {
    throw Error("IndexServer: max_batch must be >= 1");
  }
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

std::uint64_t IndexServer::reload(const std::string& path) {
  const double start_us = trace_now_us();
  try {
    const std::uint64_t epoch =
        generations_.reload(path, options_.shard_bits, options_.allow_degraded)
            ->epoch();
    serve_metrics().reloads.add(1);
    if (obs_enabled()) {
      TraceSpan span;
      span.name = "reload";
      span.category = "serve";
      span.start_us = start_us;
      span.dur_us = trace_now_us() - start_us;
      span.tid = trace_thread_id();
      span.add_arg("epoch", epoch);
      TraceRing::global().record(span);
    }
    return epoch;
  } catch (...) {
    serve_metrics().failed_reloads.add(1);
    throw;
  }
}

std::shared_ptr<const IndexGeneration> IndexServer::generation() const {
  return generations_.active();
}

IndexServer::~IndexServer() { stop(); }

void IndexServer::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  arrivals_.notify_all();
  // Serialize the join so concurrent stop() calls are safe and *every* stop()
  // returns only after the drain has finished (idempotent included).
  std::lock_guard<std::mutex> join_lock(join_mutex_);
  if (dispatcher_.joinable()) dispatcher_.join();
}

IndexServer::Pending& IndexServer::admit(Pending&& pending,
                                         std::uint64_t deadline_us) {
  // Caller holds mutex_.
  if (stopping_) {
    ++health_.rejected_stopped;
    serve_metrics().rejected_stopped.add(1);
    throw ServerStoppedError();
  }
  if (options_.max_queue > 0 && pending_.size() >= options_.max_queue) {
    ++health_.rejected_overload;
    serve_metrics().rejected_overload.add(1);
    throw ServerOverloadError(pending_.size(), options_.max_queue);
  }
  pending.enqueued = Clock::now();
  pending.deadline_us = deadline_us;
  pending.trace_id = next_trace_id();
  if (deadline_us > 0) {
    pending.deadline = pending.enqueued + std::chrono::microseconds(deadline_us);
  }
  pending_.push_back(std::move(pending));
  ++health_.accepted;
  serve_metrics().accepted.add(1);
  serve_metrics().queue_depth.set(static_cast<std::int64_t>(pending_.size()));
  return pending_.back();
}

RangeQueryResult IndexServer::range_query(const Box& box) {
  return range_query_served(box, options_.deadline_us).result;
}

RangeQueryResult IndexServer::range_query(const Box& box,
                                          std::uint64_t deadline_us) {
  return range_query_served(box, deadline_us).result;
}

KnnQueryResult IndexServer::knn_query(const Point& query, std::uint32_t k) {
  return knn_query_served(query, k, options_.deadline_us).result;
}

KnnQueryResult IndexServer::knn_query(const Point& query, std::uint32_t k,
                                      std::uint64_t deadline_us) {
  return knn_query_served(query, k, deadline_us).result;
}

ServedRange IndexServer::range_query_served(const Box& box) {
  return range_query_served(box, options_.deadline_us);
}

ServedRange IndexServer::range_query_served(const Box& box,
                                            std::uint64_t deadline_us) {
  std::future<ServedRange> future;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Pending& slot = admit(Pending(box), deadline_us);
    future = slot.range_promise.get_future();
    serve_metrics().range_queries.add(1);
  }
  arrivals_.notify_one();
  return future.get();
}

ServedKnn IndexServer::knn_query_served(const Point& query, std::uint32_t k) {
  return knn_query_served(query, k, options_.deadline_us);
}

ServedKnn IndexServer::knn_query_served(const Point& query, std::uint32_t k,
                                        std::uint64_t deadline_us) {
  std::future<ServedKnn> future;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Pending& slot = admit(Pending(query, k), deadline_us);
    future = slot.knn_promise.get_future();
    serve_metrics().knn_queries.add(1);
  }
  arrivals_.notify_one();
  return future.get();
}

ServerHealth IndexServer::health() const {
  ServerHealth snapshot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot = health_;
    snapshot.queue_depth = pending_.size();
    snapshot.stopped = stopping_;
  }
  const std::shared_ptr<const IndexGeneration> gen = generations_.active();
  snapshot.epoch = gen->epoch();
  snapshot.reloads = generations_.reloads();
  snapshot.failed_reloads = generations_.failed_reloads();
  snapshot.shard_count = gen->sharded().shard_count();
  snapshot.dead_shards = gen->dead_shard_count();
  snapshot.shard_alive = gen->shard_alive();
  return snapshot;
}

void IndexServer::dispatcher_loop() {
  std::vector<Pending> batch;
  while (true) {
    std::uint64_t batch_number = 0;
    {
      // The one batching rule: whenever the dispatcher is idle it takes up
      // to max_batch of the oldest queued queries.  Batches grow only while
      // a previous batch executes.
      std::unique_lock<std::mutex> lock(mutex_);
      arrivals_.wait(lock, [this] { return stopping_ || !pending_.empty(); });
      if (pending_.empty()) return;  // stopping with nothing queued
      const auto take = static_cast<std::ptrdiff_t>(
          std::min<std::size_t>(pending_.size(), options_.max_batch));
      batch.assign(std::make_move_iterator(pending_.begin()),
                   std::make_move_iterator(pending_.begin() + take));
      pending_.erase(pending_.begin(), pending_.begin() + take);
      batch_number = ++health_.batches_dispatched;
      serve_metrics().queue_depth.set(
          static_cast<std::int64_t>(pending_.size()));
    }
    serve_metrics().batches.add(1);
    serve_metrics().batch_rows.record_us(static_cast<double>(batch.size()));
    const auto formed = Clock::now();
    expire_batch(batch, formed);
    // Pin the active generation for this whole batch: a reload that lands
    // mid-execution swaps the manager's pointer, but this batch keeps its
    // generation mapped (shared_ptr refcount) and answers from it — the swap
    // is only ever observed at a batch boundary.
    const std::shared_ptr<const IndexGeneration> gen = generations_.active();
    execute_batch(batch, *gen);
    {
      // Per-query latency split at the batch boundary: queue wait (enqueue
      // -> batch formation) and execute (formation -> answer delivered),
      // recorded with the executed count after the futures are fulfilled.
      const auto done = Clock::now();
      const double execute_us =
          std::chrono::duration<double, std::micro>(done - formed).count();
      std::lock_guard<std::mutex> lock(mutex_);
      for (const Pending& p : batch) {
        health_.queue_wait_latency.record_us(
            std::chrono::duration<double, std::micro>(formed - p.enqueued)
                .count());
        health_.execute_latency.record_us(execute_us);
        ++health_.executed;
      }
    }
    serve_metrics().executed.add(batch.size());
    if (obs_enabled()) {
      // One queue-wait span per query and one execute-side summary histogram
      // pair: the engine-fact spans were already recorded by execute_batch.
      const auto done = Clock::now();
      const double execute_us =
          std::chrono::duration<double, std::micro>(done - formed).count();
      const double formed_us = trace_time_us(formed);
      const std::uint32_t tid = trace_thread_id();
      std::vector<TraceSpan> spans;
      spans.reserve(batch.size() + 1);
      for (const Pending& p : batch) {
        const double wait_us =
            std::chrono::duration<double, std::micro>(formed - p.enqueued)
                .count();
        serve_metrics().queue_wait_us.record_us(wait_us);
        serve_metrics().execute_us.record_us(execute_us);
        TraceSpan span;
        span.trace_id = p.trace_id;
        span.name = "queue_wait";
        span.category = "serve";
        span.start_us = trace_time_us(p.enqueued);
        span.dur_us = wait_us;
        span.tid = tid;
        span.add_arg("deadline_us", p.deadline_us);
        spans.push_back(span);
      }
      TraceSpan span;
      span.name = "batch";
      span.category = "serve";
      span.start_us = formed_us;
      span.dur_us = execute_us;
      span.tid = tid;
      span.add_arg("rows", batch.size());
      span.add_arg("epoch", gen->epoch());
      spans.push_back(span);
      // One ring-lock acquisition per batch, not per query.
      TraceRing::global().record_all(spans);
    }
    if (options_.metrics_log_every_batches > 0 &&
        batch_number % options_.metrics_log_every_batches == 0) {
      log_metrics_line();
    }
    batch.clear();
  }
}

void IndexServer::log_metrics_line() {
  const ServerHealth snapshot = health();
  std::fprintf(
      stderr,
      "sfc-serve metrics: batches=%llu accepted=%llu executed=%llu "
      "timed_out=%llu rejected=%llu queue_depth=%llu queue_wait_p99_us=%.0f "
      "execute_p99_us=%.0f epoch=%llu reloads=%llu\n",
      static_cast<unsigned long long>(snapshot.batches_dispatched),
      static_cast<unsigned long long>(snapshot.accepted),
      static_cast<unsigned long long>(snapshot.executed),
      static_cast<unsigned long long>(snapshot.timed_out),
      static_cast<unsigned long long>(snapshot.rejected_overload +
                                      snapshot.rejected_stopped),
      static_cast<unsigned long long>(snapshot.queue_depth),
      snapshot.queue_wait_latency.percentile_us(0.99),
      snapshot.execute_latency.percentile_us(0.99),
      static_cast<unsigned long long>(snapshot.epoch),
      static_cast<unsigned long long>(snapshot.reloads));
}

void IndexServer::expire_batch(std::vector<Pending>& batch,
                               Clock::time_point now) {
  const auto is_expired = [now](const Pending& p) {
    return p.deadline_us > 0 && now >= p.deadline;
  };
  // Bump the counter BEFORE failing any promise: a client that observes
  // ServerTimeoutError is guaranteed to find itself in health().timed_out.
  const auto expired = static_cast<std::uint64_t>(
      std::count_if(batch.begin(), batch.end(), is_expired));
  if (expired > 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    health_.timed_out += expired;
    serve_metrics().timed_out.add(expired);
  }
  std::size_t kept = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Pending& p = batch[i];
    if (is_expired(p)) {
      const auto waited = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(now -
                                                                p.enqueued)
              .count());
      const auto error = std::make_exception_ptr(
          ServerTimeoutError(p.deadline_us, waited));
      if (p.kind == Pending::Kind::kRange) {
        p.range_promise.set_exception(error);
      } else {
        p.knn_promise.set_exception(error);
      }
      continue;
    }
    if (kept != i) batch[kept] = std::move(batch[i]);
    ++kept;
  }
  batch.erase(batch.begin() + static_cast<std::ptrdiff_t>(kept), batch.end());
}

void IndexServer::execute_batch(std::vector<Pending>& batch,
                                const IndexGeneration& gen) {
  // One pass over the whole batch: each query, range or kNN with its own k,
  // is answered once over the generation's view into its own slot, so a bad
  // query fails only itself.  A chunk builds each engine it needs once.
  const IndexColumnsView& view = gen.view();
  const bool tracing = obs_enabled();
  ThreadPool& pool =
      options_.pool != nullptr ? *options_.pool : ThreadPool::shared();
  parallel_for_chunks(
      pool, batch.size(), options_.grain == 0 ? 16 : options_.grain,
      [&](const ChunkRange& chunk) {
        std::optional<RangeScanEngine> scan;
        std::optional<KnnEngine> knn;
        std::optional<RangeCoverEngine> cover;  // degraded overlap only
        CoverWorkspace ws;
        for (std::uint64_t i = chunk.begin; i < chunk.end; ++i) {
          Pending& p = batch[i];
          if (tracing) p.engine_start_us = trace_now_us();
          try {
            if (p.kind == Pending::Kind::kRange) {
              if (!scan) scan.emplace(view);
              scan->scan(p.box, &p.range.ids, &p.range.stats);
              if (gen.degraded()) {
                // The live answer is the full answer unless the box's cover
                // reaches a dead key range.
                if (!cover) cover.emplace(view.curve());
                p.dead_overlap = gen.dead_overlap(cover->cover(p.box, ws));
              }
            } else {
              if (!knn) knn.emplace(view);
              p.knn.neighbors = knn->query(p.point, p.k, &p.knn.stats);
              if (gen.degraded()) {
                // Conservative: any dead shard could hold a closer neighbor,
                // so the live best k is never certified.
                p.knn.stats.certified = false;
                p.dead_overlap = gen.dead_shards();
              }
            }
          } catch (...) {
            p.error = std::current_exception();
          }
          if (tracing) p.engine_us = trace_now_us() - p.engine_start_us;
        }
      });

  // Deliver on this thread.  Each query's engine-fact span carries its own
  // engine time and work accounting (the paper's clustering quantities,
  // observed live); spans are flushed with one record_all per batch.
  const std::uint64_t epoch = gen.epoch();
  std::vector<TraceSpan> engine_spans;
  if (tracing) engine_spans.reserve(batch.size());
  for (Pending& p : batch) {
    const bool range = p.kind == Pending::Kind::kRange;
    if (tracing && !p.error) {
      TraceSpan span;
      span.trace_id = p.trace_id;
      span.name = range ? "range" : "knn";
      span.category = "engine";
      span.start_us = p.engine_start_us;
      span.dur_us = p.engine_us;
      span.tid = trace_thread_id();
      span.add_arg("epoch", epoch);
      if (range) {
        const RangeScanStats& stats = p.range.stats;
        span.add_arg("rows_returned", p.range.ids.size());
        span.add_arg("rows_scanned", stats.rows_scanned);
        span.add_arg("runs_in_cover", stats.runs_in_cover);
        span.add_arg("runs_touched", stats.runs_touched);
        span.add_arg("nodes_visited", stats.nodes_visited);
        span.add_arg("used_subtree", stats.used_subtree ? 1 : 0);
      } else {
        const KnnStats& stats = p.knn.stats;
        span.add_arg("k", p.k);
        span.add_arg("neighbors", p.knn.neighbors.size());
        span.add_arg("nodes_expanded", stats.nodes_expanded);
        span.add_arg("frontier_pushes", stats.frontier_pushes);
        span.add_arg("rows_scanned", stats.rows_scanned);
        span.add_arg("certified", stats.certified ? 1 : 0);
      }
      engine_spans.push_back(span);
    }
    std::exception_ptr error = p.error;
    if (!error && !p.dead_overlap.empty()) {
      serve_metrics().degraded_partials.add(1);
      error = range ? std::make_exception_ptr(PartialResultError(
                          std::move(p.dead_overlap), std::move(p.range.ids)))
                    : std::make_exception_ptr(PartialResultError(
                          std::move(p.dead_overlap),
                          std::move(p.knn.neighbors)));
    }
    if (range) {
      if (error) {
        p.range_promise.set_exception(error);
      } else {
        p.range_promise.set_value(ServedRange{std::move(p.range), epoch});
      }
    } else if (error) {
      p.knn_promise.set_exception(error);
    } else {
      p.knn_promise.set_value(ServedKnn{std::move(p.knn), epoch});
    }
  }
  if (tracing) TraceRing::global().record_all(engine_spans);
}

ReplayReport replay_trace(IndexServer& server, const QueryTrace& trace,
                          const ReplayOptions& options) {
  const std::uint32_t clients = std::max<std::uint32_t>(1, options.clients);
  ReplayReport report;
  report.clients = clients;
  report.queries = trace.size();
  report.range_queries = trace.range_count();
  report.knn_queries = trace.knn_count();
  if (trace.empty()) return report;

  struct ClientTally {
    std::vector<double> latencies_us;
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t timed_out = 0;
    std::uint64_t retries = 0;
    std::uint64_t rows_returned = 0;
    std::uint64_t neighbors_returned = 0;
    std::exception_ptr error;
  };
  std::vector<ClientTally> tallies(clients);

  using clock = std::chrono::steady_clock;
  const auto replay_begin = clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientTally& tally = tallies[c];
      try {
        // Strided slice: client c replays queries c, c+clients, ... so every
        // client mixes range and kNN work the way the trace does.
        for (std::size_t q = c; q < trace.size(); q += clients) {
          const TraceQuery& query = trace.queries[q];
          const auto begin = clock::now();
          // Retry-with-exponential-backoff on shed load; anything else is a
          // real error and aborts the replay.  Every query resolves to
          // exactly one outcome, assigned exactly once at loop exit — a
          // query that is shed, retried, and finally times out tallies as
          // one timed_out, never as one of each, so the identity
          // accepted + rejected + timed_out == queries holds by
          // construction.
          enum class Outcome : std::uint8_t { kAccepted, kRejected, kTimedOut };
          Outcome outcome = Outcome::kAccepted;
          for (std::uint32_t attempt = 0;; ++attempt) {
            try {
              if (query.kind == TraceQuery::Kind::kRange) {
                const RangeQueryResult result =
                    options.deadline_us > 0
                        ? server.range_query(query.box(), options.deadline_us)
                        : server.range_query(query.box());
                tally.rows_returned += result.ids.size();
              } else {
                const KnnQueryResult result =
                    options.deadline_us > 0
                        ? server.knn_query(query.point, query.k,
                                           options.deadline_us)
                        : server.knn_query(query.point, query.k);
                tally.neighbors_returned += result.neighbors.size();
              }
              outcome = Outcome::kAccepted;
              const auto end = clock::now();
              tally.latencies_us.push_back(
                  std::chrono::duration<double, std::micro>(end - begin)
                      .count());
              break;
            } catch (const ServerOverloadError&) {
              outcome = Outcome::kRejected;
            } catch (const ServerTimeoutError&) {
              outcome = Outcome::kTimedOut;
            }
            if (attempt >= options.max_retries) break;
            ++tally.retries;
            const std::uint64_t backoff_us = std::min<std::uint64_t>(
                options.backoff_max_us,
                static_cast<std::uint64_t>(options.backoff_base_us)
                    << std::min<std::uint32_t>(attempt, 20));
            std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
          }
          switch (outcome) {
            case Outcome::kAccepted: ++tally.accepted; break;
            case Outcome::kRejected: ++tally.rejected; break;
            case Outcome::kTimedOut: ++tally.timed_out; break;
          }
        }
      } catch (...) {
        tally.error = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const auto replay_end = clock::now();

  std::vector<double> latencies;
  latencies.reserve(trace.size());
  for (ClientTally& tally : tallies) {
    if (tally.error) std::rethrow_exception(tally.error);
    report.accepted += tally.accepted;
    report.rejected += tally.rejected;
    report.timed_out += tally.timed_out;
    report.retries += tally.retries;
    report.rows_returned += tally.rows_returned;
    report.neighbors_returned += tally.neighbors_returned;
    latencies.insert(latencies.end(), tally.latencies_us.begin(),
                     tally.latencies_us.end());
  }

  report.wall_seconds =
      std::chrono::duration<double>(replay_end - replay_begin).count();
  report.qps = report.wall_seconds > 0.0
                   ? static_cast<double>(report.accepted) / report.wall_seconds
                   : 0.0;
  // Exact percentiles from the shared helper (it sorts `latencies`), so the
  // replay report and the chaos report use one nearest-rank definition.
  report.p50_us = nearest_rank_percentile(latencies, 0.50);
  report.p99_us = nearest_rank_percentile(latencies, 0.99);
  report.max_us = latencies.empty() ? 0.0 : latencies.back();
  const ServerHealth health = server.health();
  report.queue_wait_p99_us = health.queue_wait_latency.percentile_us(0.99);
  report.execute_p99_us = health.execute_latency.percentile_us(0.99);
  return report;
}

}  // namespace sfc

// Admission control under stress: the bounded queue sheds load with typed
// errors, deadlines fail fast, stop() drains safely against concurrent
// clients, and every shed query is accounted for — shed load is measured,
// never silently dropped.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "sfc/curves/curve_factory.h"
#include "sfc/index/point_index.h"
#include "sfc/rng/sampling.h"
#include "sfc/serve/serve_error.h"
#include "sfc/serve/server.h"
#include "gated_curve.h"

namespace sfc {
namespace {

struct Fixture {
  CurvePtr curve;
  std::vector<Point> points;
  PointIndex index;
};

Fixture make_fixture(std::uint64_t seed) {
  CurveDescriptor descriptor;
  descriptor.family = "hilbert";
  descriptor.dim = 2;
  descriptor.side = 64;
  CurvePtr curve = make_curve(descriptor);
  Xoshiro256 rng(seed);
  std::vector<Point> points;
  for (int i = 0; i < 2000; ++i) {
    points.push_back(random_cell(curve->universe(), rng));
  }
  PointIndex index = PointIndex::build(*curve, points);
  return Fixture{std::move(curve), std::move(points), std::move(index)};
}

Box small_box(const Fixture&) { return Box(Point{0, 0}, Point{7, 7}); }

/// Opens `gate` from a helper thread once `server` has shed `sheds`
/// submissions with ServerOverloadError, so a replay against a held
/// dispatcher is guaranteed to see that much shed load.
std::thread open_after_sheds(const IndexServer& server, GatedCurve& gate,
                             std::uint64_t sheds) {
  return std::thread([&server, &gate, sheds] {
    while (server.health().rejected_overload < sheds) {
      std::this_thread::yield();
    }
    gate.open();
  });
}

TEST(ServerRobustness, PostStopQueriesThrowTypedStoppedError) {
  const Fixture f = make_fixture(3);
  IndexServer server(f.index.view(), {});
  EXPECT_NO_THROW(server.range_query(small_box(f)));
  server.stop();
  EXPECT_THROW(server.range_query(small_box(f)), ServerStoppedError);
  EXPECT_THROW(server.knn_query(Point{1, 1}, 3), ServerStoppedError);
  const ServerHealth health = server.health();
  EXPECT_TRUE(health.stopped);
  EXPECT_EQ(health.rejected_stopped, 2u);
}

TEST(ServerRobustness, StopIsIdempotentAndConcurrencySafe) {
  const Fixture f = make_fixture(3);
  IndexServer server(f.index.view(), {});
  std::vector<std::thread> stoppers;
  for (int i = 0; i < 4; ++i) {
    stoppers.emplace_back([&server] { server.stop(); });
  }
  for (std::thread& t : stoppers) t.join();
  server.stop();  // and once more on this thread
  EXPECT_TRUE(server.health().stopped);
}

TEST(ServerRobustness, BoundedQueueShedsWithOverloadError) {
  const Fixture f = make_fixture(5);
  // Hold the dispatcher inside a one-query batch so nothing else dispatches
  // while we fill the queue: admissions 1..4 enqueue, the 5th must shed.
  GatedCurve gate(*f.curve);
  ServerOptions options;
  options.max_batch = 1024;
  options.max_queue = 4;
  IndexServer server(gate.gate(f.index.view()), options);
  std::thread plug([&] { server.range_query(small_box(f)); });
  gate.wait_for_blocked_call();

  std::vector<std::thread> clients;
  std::atomic<int> admitted{0};
  std::atomic<int> shed{0};
  std::atomic<std::uint64_t> seen_depth{0};
  for (int i = 0; i < 5; ++i) {
    clients.emplace_back([&] {
      try {
        server.range_query(small_box(f));
        ++admitted;
      } catch (const ServerOverloadError& error) {
        ++shed;
        seen_depth = error.queue_depth();
        EXPECT_EQ(error.max_queue(), 4u);
      }
    });
    // Serialize admissions so exactly the 5th arrival sees a full queue.
    while (i < 4 && server.health().queue_depth <
                        static_cast<std::uint64_t>(i + 1)) {
      std::this_thread::yield();
    }
  }
  while (shed.load() == 0) std::this_thread::yield();
  gate.open();
  plug.join();
  for (std::thread& t : clients) t.join();
  server.stop();

  EXPECT_EQ(admitted.load(), 4);
  EXPECT_EQ(shed.load(), 1);
  EXPECT_EQ(seen_depth.load(), 4u);
  const ServerHealth health = server.health();
  EXPECT_EQ(health.accepted, 5u);  // the plug + 4
  EXPECT_EQ(health.rejected_overload, 1u);
  EXPECT_EQ(health.executed, 5u);
  EXPECT_EQ(health.queue_depth, 0u);
}

TEST(ServerRobustness, ExpiredDeadlineFailsFastWithTimeoutError) {
  const Fixture f = make_fixture(7);
  // The dispatcher is held inside an earlier batch past the query's
  // deadline: the query expires while queued, and batch formation must fail
  // it with the typed error rather than execute it late.
  GatedCurve gate(*f.curve);
  ServerOptions options;
  options.max_batch = 1024;
  IndexServer server(gate.gate(f.index.view()), options);
  std::thread plug([&] { server.range_query(small_box(f)); });
  gate.wait_for_blocked_call();
  std::thread opener([&] {
    while (server.health().queue_depth < 1) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(4));
    gate.open();
  });
  try {
    server.range_query(small_box(f), 2000);  // 2ms deadline, held >= 4ms
    FAIL() << "expected ServerTimeoutError";
  } catch (const ServerTimeoutError& error) {
    EXPECT_EQ(error.deadline_us(), 2000u);
    EXPECT_GE(error.waited_us(), 2000u);
  }
  opener.join();
  plug.join();
  server.stop();
  const ServerHealth health = server.health();
  EXPECT_EQ(health.timed_out, 1u);
  EXPECT_EQ(health.executed, 1u);  // the plug only
}

TEST(ServerRobustness, GenerousDeadlineStillAnswers) {
  const Fixture f = make_fixture(7);
  ServerOptions options;
  options.deadline_us = 5000000;  // 5s default deadline: never hit
  IndexServer server(f.index.view(), options);
  (void)server.range_query(small_box(f));
  const KnnQueryResult knn = server.knn_query(Point{3, 3}, 4);
  EXPECT_EQ(knn.neighbors.size(), 4u);
  // The dispatcher records executed/latency after fulfilling the futures, so
  // the counters may trail a just-answered query; the drain makes them final.
  server.stop();
  const ServerHealth health = server.health();
  EXPECT_EQ(health.executed, 2u);
  EXPECT_EQ(health.timed_out, 0u);
  EXPECT_EQ(health.queue_wait_latency.count, 2u);
  EXPECT_EQ(health.execute_latency.count, 2u);
  EXPECT_GT(health.queue_wait_latency.percentile_us(0.5), 0.0);
  EXPECT_GT(health.execute_latency.percentile_us(0.5), 0.0);
}

TEST(ServerRobustness, StopDrainsInFlightClientsRacingStop) {
  // Many clients submit while stop() lands: every query either answers or
  // fails with the typed stopped error, and accepted == executed afterward
  // (nothing is lost in the drain).
  const Fixture f = make_fixture(11);
  ServerOptions options;
  options.max_batch = 8;
  IndexServer server(f.index.view(), options);

  std::atomic<int> answered{0};
  std::atomic<int> stopped{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 8; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < 50; ++i) {
        try {
          server.range_query(small_box(f));
          ++answered;
        } catch (const ServerStoppedError&) {
          ++stopped;
        }
      }
    });
  }
  // Let some traffic through, then stop in the middle of the storm.
  while (server.health().executed < 20) std::this_thread::yield();
  server.stop();
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(answered.load() + stopped.load(), 8 * 50);
  EXPECT_GT(answered.load(), 0);
  const ServerHealth health = server.health();
  EXPECT_EQ(health.accepted, static_cast<std::uint64_t>(answered.load()));
  EXPECT_EQ(health.executed, health.accepted);
  EXPECT_EQ(health.rejected_stopped,
            static_cast<std::uint64_t>(stopped.load()));
}

TEST(ServerRobustness, ReplayRetriesRecoverSheddedQueries) {
  const Fixture f = make_fixture(13);
  const Universe u = f.curve->universe();
  TraceGenOptions trace_options;
  trace_options.count = 400;
  trace_options.box_extent = 6;
  trace_options.knn_k = 4;
  trace_options.seed = 13;
  const QueryTrace trace = generate_trace(u, trace_options);

  // A tiny queue plus many clients, and a dispatcher held until the queue
  // has shed, forces overload; generous retries let every query eventually
  // land.  The accounting identity must hold either way:
  // accepted + rejected + timed_out == queries.
  GatedCurve gate(*f.curve);
  ServerOptions options;
  options.max_queue = 2;
  options.max_batch = 2;
  IndexServer server(gate.gate(f.index.view()), options);
  std::thread opener = open_after_sheds(server, gate, 1);
  ReplayOptions replay;
  replay.clients = 16;
  replay.max_retries = 1000;
  replay.backoff_base_us = 50;
  replay.backoff_max_us = 2000;
  const ReplayReport report = replay_trace(server, trace, replay);
  opener.join();

  EXPECT_EQ(report.queries, trace.size());
  EXPECT_EQ(report.accepted + report.rejected + report.timed_out,
            report.queries);
  EXPECT_EQ(report.accepted, trace.size());  // retries absorbed the shedding
  EXPECT_GT(report.qps, 0.0);
  // The tiny queue must actually have shed something for this test to mean
  // anything; retries is the evidence.
  EXPECT_GT(report.retries, 0u);
}

TEST(ServerRobustness, ReplayCountsUnrecoveredShedLoad) {
  const Fixture f = make_fixture(17);
  const Universe u = f.curve->universe();
  TraceGenOptions trace_options;
  trace_options.count = 300;
  trace_options.box_extent = 6;
  trace_options.knn_k = 4;
  trace_options.seed = 17;
  const QueryTrace trace = generate_trace(u, trace_options);

  // No retries and a tiny queue: shed queries stay shed, and the report
  // says exactly how many — p50/p99 cover only the accepted ones.
  GatedCurve gate(*f.curve);
  ServerOptions options;
  options.max_queue = 1;
  options.max_batch = 1;
  IndexServer server(gate.gate(f.index.view()), options);
  std::thread opener = open_after_sheds(server, gate, 1);
  ReplayOptions replay;
  replay.clients = 32;
  replay.max_retries = 0;
  const ReplayReport report = replay_trace(server, trace, replay);
  opener.join();

  EXPECT_EQ(report.queries, trace.size());
  EXPECT_EQ(report.accepted + report.rejected + report.timed_out,
            report.queries);
  EXPECT_GT(report.rejected, 0u);
  EXPECT_GT(report.accepted, 0u);
  EXPECT_EQ(report.retries, 0u);
}

TEST(ServerRobustness, ReplayCountsEachQueryExactlyOnceAcrossRetries) {
  // The accounting regression this pins: a query that sheds on several
  // attempts and then lands must count once (as accepted), and one that
  // sheds on every attempt must count once under its *final* outcome.  A
  // bounded retry budget against a deliberately shedding server produces
  // both histories; the identity then holds with nonzero terms on each side.
  const Fixture f = make_fixture(19);
  const Universe u = f.curve->universe();
  TraceGenOptions trace_options;
  trace_options.count = 300;
  trace_options.box_extent = 6;
  trace_options.knn_k = 4;
  trace_options.seed = 19;
  const QueryTrace trace = generate_trace(u, trace_options);

  // While the dispatcher is held, one query executes and one waits in the
  // queue; every other submission sheds.  A client with a query admitted
  // makes no further attempt until the gate opens, so each shedding client
  // sheds from its first attempt on — and 2 * clients + 1 sheds mean some
  // client has shed all three attempts of one query.
  GatedCurve gate(*f.curve);
  ServerOptions options;
  options.max_queue = 1;
  options.max_batch = 1;
  IndexServer server(gate.gate(f.index.view()), options);
  ReplayOptions replay;
  replay.clients = 24;
  replay.max_retries = 2;  // some queries recover, some exhaust the budget
  replay.backoff_base_us = 50;
  replay.backoff_max_us = 500;
  std::thread opener = open_after_sheds(server, gate, 2 * replay.clients + 1);
  const ReplayReport report = replay_trace(server, trace, replay);
  opener.join();

  EXPECT_EQ(report.queries, trace.size());
  EXPECT_EQ(report.accepted + report.rejected + report.timed_out,
            report.queries);
  EXPECT_GT(report.retries, 0u);
  EXPECT_GT(report.accepted, 0u);
  EXPECT_GT(report.rejected, 0u);
  // The split histograms reach the report: end-to-end latency decomposes
  // into queue wait + execute, both measured over the accepted queries.
  EXPECT_GT(report.queue_wait_p99_us, 0.0);
  EXPECT_GT(report.execute_p99_us, 0.0);
}

TEST(ServerRobustness, LatencyHistogramBucketsAndPercentiles) {
  LatencyHistogram h;
  EXPECT_EQ(h.percentile_us(0.5), 0.0);  // empty
  h.record_us(0.5);   // ceil -> 1, width 1 -> bucket 1, upper edge 2us
  h.record_us(3.0);   // width(3)=2 -> bucket 2, upper edge 4us
  h.record_us(100.0); // width(100)=7 -> bucket 7, upper edge 128us
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.percentile_us(0.01), 2.0);
  EXPECT_EQ(h.percentile_us(0.5), 4.0);
  EXPECT_EQ(h.percentile_us(0.99), 128.0);
  // Saturation: absurd values land in the top bucket, not out of bounds.
  h.record_us(1e18);
  EXPECT_EQ(h.count, 4u);
  EXPECT_EQ(h.buckets[31], 1u);
}

}  // namespace
}  // namespace sfc
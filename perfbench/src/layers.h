// The traced run's per-layer measurements: each layer's public entry point
// is called and timed from the harness, one query at a time, so per-layer
// self times come from per-query paired differences of the harness's own
// spans.  Nothing here reads the program's own metrics or trace ring.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "replay.h"
#include "sfc/curves/curve_factory.h"
#include "sfc/serve/server.h"

namespace perfbench {

/// name -> (value, unit)
using MetricMap = std::map<std::string, std::pair<double, std::string>>;

/// Query path, layer by layer (serve -> shard -> base executor -> cover ->
/// resolve -> gather, and k-NN), over `queries` sent one at a time to the
/// idle server.  The serve layer is timed against the executor of the
/// served sharding, the shard layer on a 16-shard view of the same rows.
/// Served answers are compared with the direct engine answer; mismatches
/// are added to *wrong.
void probe_query_layers(sfc::IndexServer& server,
                        const std::vector<Query>& queries, MetricMap& out,
                        std::vector<Span>& spans, std::uint64_t* wrong);

/// Set-up path, layer by layer: curve encode, key sort, index build, store
/// write, verified and unverified open; median of kSetupRepeats.
void probe_setup_layers(const sfc::SpaceFillingCurve& curve,
                        const sfc::CurveDescriptor& descriptor,
                        const std::vector<sfc::Point>& points,
                        const std::string& path, MetricMap& out,
                        std::vector<Span>& spans);

/// gen.swap_ms: the fastest of kSwapPairs reload() calls minus the fastest
/// of as many verified opens of the same file, the two alternating.
void probe_swap(sfc::IndexServer& server, const std::string& path,
                MetricMap& out, std::vector<Span>& spans);

}  // namespace perfbench

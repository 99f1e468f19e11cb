#include "sfc/store/fault_inject.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <mutex>
#include <thread>
#include <utility>

#include "sfc/rng/sampling.h"
#include "sfc/store/crc32c.h"

namespace sfc {

namespace {

// Format-v2 header geometry, mirrored from docs/index_format.md (and pinned
// by the store tests): the header is 144 bytes, with its own CRC32C in the
// trailing 4 bytes — computed over the header with that field zeroed.
constexpr std::uint64_t kHeaderBytes = 144;
constexpr std::uint64_t kHeaderChecksumOffset = 140;

}  // namespace

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kBitFlip: return "bit-flip";
    case FaultKind::kByteStomp: return "byte-stomp";
    case FaultKind::kTruncate: return "truncate";
    case FaultKind::kTruncateWhileMapped: return "truncate-while-mapped";
    case FaultKind::kHeaderField: return "header-field";
    default: return "?";
  }
}

const char* fault_outcome_name(FaultOutcome outcome) {
  switch (outcome) {
    case FaultOutcome::kRejected: return "rejected";
    case FaultOutcome::kBenign: return "benign";
    case FaultOutcome::kWrongAnswer: return "WRONG-ANSWER";
    case FaultOutcome::kWrongError: return "WRONG-ERROR";
    default: return "?";
  }
}

std::string FaultMutation::describe() const {
  switch (kind) {
    case FaultKind::kBitFlip:
      return std::string(fault_kind_name(kind)) + " offset " +
             std::to_string(offset) + " bit " + std::to_string(bit);
    case FaultKind::kByteStomp:
    case FaultKind::kHeaderField:
      return std::string(fault_kind_name(kind)) + " offset " +
             std::to_string(offset) + " value " + std::to_string(value);
    case FaultKind::kTruncate:
      return std::string(fault_kind_name(kind)) + " to " +
             std::to_string(truncate_to) + " bytes";
    case FaultKind::kTruncateWhileMapped:
      return std::string(fault_kind_name(kind)) + " at " +
             std::to_string(truncate_to) + " bytes (tail zeroed)";
    default:
      return "?";
  }
}

FaultMutation draw_fault_mutation(Xoshiro256& rng, std::uint64_t file_bytes) {
  FaultMutation m;
  const std::uint64_t roll = rng.next_below(100);
  if (roll < 40) {
    m.kind = FaultKind::kBitFlip;
    m.offset = rng.next_below(file_bytes);
    m.bit = static_cast<std::uint8_t>(rng.next_below(8));
  } else if (roll < 55) {
    m.kind = FaultKind::kByteStomp;
    m.offset = rng.next_below(file_bytes);
    m.value = static_cast<std::uint8_t>(rng.next_below(256));
  } else if (roll < 70) {
    m.kind = FaultKind::kTruncate;
    m.truncate_to = rng.next_below(file_bytes);
  } else if (roll < 85) {
    m.kind = FaultKind::kTruncateWhileMapped;
    m.truncate_to = rng.next_below(file_bytes);
  } else {
    m.kind = FaultKind::kHeaderField;
    // Stomp any pre-checksum header byte; the harness recomputes the header
    // checksum afterwards so the mutation survives into semantic validation.
    m.offset = rng.next_below(std::min(kHeaderChecksumOffset, file_bytes));
    m.value = static_cast<std::uint8_t>(rng.next_below(256));
  }
  return m;
}

FaultHarness::FaultHarness(
    std::shared_ptr<const std::vector<std::uint8_t>> pristine,
    std::string scratch_path, std::uint32_t probes, std::uint64_t probe_seed)
    : pristine_(std::move(pristine)), scratch_path_(std::move(scratch_path)) {
  fd_ = ::open(scratch_path_.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC,
               0644);
  if (fd_ < 0) throw StoreIoError("open", scratch_path_, errno);
  write_at(0, pristine_->data(), pristine_->size());

  // Build the probe set and its reference answers from the pristine scratch
  // copy; this also proves the input validates before any fault is injected.
  MappedIndex index = MappedIndex::open(scratch_path_, {.verify = true});
  const Universe& u = index.curve().universe();
  Xoshiro256 rng(probe_seed);
  const coord_t extent = std::max<coord_t>(1, u.side() / 8);
  for (std::uint32_t i = 0; i < probes; ++i) {
    probe_boxes_.push_back(random_box(u, extent, rng));
    probe_points_.push_back(random_cell(u, rng));
  }
  reference_ranges_ = run_range_queries(index.view(), probe_boxes_);
  reference_knn_ = run_knn_queries(index.view(), probe_points_, probe_k_);
}

FaultHarness::~FaultHarness() {
  if (fd_ >= 0) ::close(fd_);
  ::unlink(scratch_path_.c_str());
}

void FaultHarness::write_at(std::uint64_t offset, const void* data,
                            std::uint64_t bytes) {
  const auto* at = static_cast<const char*>(data);
  while (bytes > 0) {
    const ::ssize_t wrote =
        ::pwrite(fd_, at, bytes, static_cast<::off_t>(offset));
    if (wrote < 0) {
      if (errno == EINTR) continue;
      throw StoreIoError("pwrite", scratch_path_, errno);
    }
    at += wrote;
    offset += static_cast<std::uint64_t>(wrote);
    bytes -= static_cast<std::uint64_t>(wrote);
  }
}

void FaultHarness::apply(const FaultMutation& mutation) {
  switch (mutation.kind) {
    case FaultKind::kBitFlip: {
      const std::uint8_t flipped = static_cast<std::uint8_t>(
          (*pristine_)[mutation.offset] ^ (1u << mutation.bit));
      write_at(mutation.offset, &flipped, 1);
      break;
    }
    case FaultKind::kByteStomp:
      write_at(mutation.offset, &mutation.value, 1);
      break;
    case FaultKind::kTruncate:
      if (::ftruncate(fd_, static_cast<::off_t>(mutation.truncate_to)) != 0) {
        throw StoreIoError("ftruncate", scratch_path_, errno);
      }
      break;
    case FaultKind::kTruncateWhileMapped:
      // Truncate, then regrow to full size.  The regrown tail reads as
      // zeros — exactly the bytes a live mapping observes when the file
      // under it is truncated and re-extended, but reachable through the
      // ordinary open path (no SIGBUS needed to deliver the corruption).
      if (::ftruncate(fd_, static_cast<::off_t>(mutation.truncate_to)) != 0 ||
          ::ftruncate(fd_, static_cast<::off_t>(pristine_->size())) != 0) {
        throw StoreIoError("ftruncate", scratch_path_, errno);
      }
      break;
    case FaultKind::kHeaderField: {
      if (mutation.offset >= kHeaderChecksumOffset) {
        throw StoreError("fault harness: header-field offset " +
                         std::to_string(mutation.offset) +
                         " lies outside the " +
                         std::to_string(kHeaderChecksumOffset) +
                         " checksummed header bytes");
      }
      write_at(mutation.offset, &mutation.value, 1);
      // Recompute the header checksum over the mutated header so the header
      // digest check passes and validation reaches the semantic layers.
      std::uint8_t header[kHeaderBytes];
      std::copy_n(pristine_->data(), kHeaderBytes, header);
      header[mutation.offset] = mutation.value;
      std::fill_n(header + kHeaderChecksumOffset, sizeof(std::uint32_t),
                  std::uint8_t{0});
      const std::uint32_t digest = crc32c(header, kHeaderBytes);
      write_at(kHeaderChecksumOffset, &digest, sizeof(digest));
      break;
    }
    default:
      break;
  }
}

void FaultHarness::restore(const FaultMutation& mutation) {
  switch (mutation.kind) {
    case FaultKind::kBitFlip:
    case FaultKind::kByteStomp:
      write_at(mutation.offset, pristine_->data() + mutation.offset, 1);
      break;
    case FaultKind::kTruncate:
    case FaultKind::kTruncateWhileMapped:
      // ftruncate back up (zero-fills; no-op if already full size), then
      // rewrite the pristine tail.
      if (::ftruncate(fd_, static_cast<::off_t>(pristine_->size())) != 0) {
        throw StoreIoError("ftruncate", scratch_path_, errno);
      }
      write_at(mutation.truncate_to,
               pristine_->data() + mutation.truncate_to,
               pristine_->size() - mutation.truncate_to);
      break;
    case FaultKind::kHeaderField:
      write_at(mutation.offset, pristine_->data() + mutation.offset, 1);
      write_at(kHeaderChecksumOffset,
               pristine_->data() + kHeaderChecksumOffset,
               sizeof(std::uint32_t));
      break;
    default:
      break;
  }
}

FaultOutcome FaultHarness::classify() {
  try {
    const MappedIndex index =
        MappedIndex::open(scratch_path_, {.verify = true});
    // The mutated file opened.  That is only acceptable if it answers every
    // probe exactly like the pristine index did (e.g. a padding-byte stomp).
    try {
      const std::vector<RangeQueryResult> ranges =
          run_range_queries(index.view(), probe_boxes_);
      for (std::size_t i = 0; i < ranges.size(); ++i) {
        if (ranges[i].ids != reference_ranges_[i].ids) {
          return FaultOutcome::kWrongAnswer;
        }
      }
      const std::vector<KnnQueryResult> knn =
          run_knn_queries(index.view(), probe_points_, probe_k_);
      for (std::size_t i = 0; i < knn.size(); ++i) {
        if (knn[i].neighbors != reference_knn_[i].neighbors) {
          return FaultOutcome::kWrongAnswer;
        }
      }
      return FaultOutcome::kBenign;
    } catch (const Error&) {
      // A validated index must answer in-universe probes; an engine error
      // here means validation let a semantic inconsistency through.
      return FaultOutcome::kWrongError;
    }
  } catch (const StoreError&) {
    return FaultOutcome::kRejected;  // the contract: typed rejection
  } catch (const Error&) {
    return FaultOutcome::kWrongError;  // escaped with the wrong type
  }
}

FaultOutcome FaultHarness::check(const FaultMutation& mutation) {
  apply(mutation);
  const FaultOutcome outcome = classify();
  restore(mutation);
  return outcome;
}

FaultCampaignReport run_fault_campaign(const std::string& path,
                                       const FaultCampaignOptions& options) {
  // Load the pristine image once; shared read-only across workers.
  auto pristine = std::make_shared<std::vector<std::uint8_t>>();
  {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) throw StoreIoError("open", path, errno);
    struct ::stat st{};
    if (::fstat(fd, &st) != 0) {
      const int err = errno;
      ::close(fd);
      throw StoreIoError("fstat", path, err);
    }
    pristine->resize(static_cast<std::size_t>(st.st_size));
    std::uint64_t at = 0;
    while (at < pristine->size()) {
      const ::ssize_t got = ::pread(fd, pristine->data() + at,
                                    pristine->size() - at,
                                    static_cast<::off_t>(at));
      if (got < 0) {
        if (errno == EINTR) continue;
        const int err = errno;
        ::close(fd);
        throw StoreIoError("pread", path, err);
      }
      if (got == 0) break;
      at += static_cast<std::uint64_t>(got);
    }
    ::close(fd);
  }
  if (pristine->size() < kHeaderBytes) {
    throw StoreError("fault campaign: '" + path + "' is shorter (" +
                     std::to_string(pristine->size()) +
                     " bytes) than an index header");
  }

  const std::string scratch_dir = [&] {
    if (!options.scratch_dir.empty()) return options.scratch_dir;
    const std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? std::string(".")
                                      : path.substr(0, slash);
  }();
  std::uint32_t threads = options.threads != 0
                              ? options.threads
                              : std::max(1u, std::thread::hardware_concurrency());
  threads = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(threads, std::max<std::uint64_t>(
                                           1, options.iterations)));

  FaultCampaignReport report;
  report.iterations = options.iterations;
  std::mutex report_mutex;
  std::exception_ptr first_error;

  const auto worker = [&](std::uint32_t worker_id) {
    try {
      FaultHarness harness(
          pristine,
          scratch_dir + "/.sfcidx-fuzz-" + std::to_string(::getpid()) + "-" +
              std::to_string(worker_id) + ".scratch",
          options.probes, options.seed ^ 0x9e3779b97f4a7c15ULL);
      std::array<std::uint64_t,
                 static_cast<std::size_t>(FaultKind::kFaultKinds)>
          by_kind{};
      std::uint64_t rejected = 0, benign = 0, wrong_answer = 0,
                    wrong_error = 0;
      std::vector<std::uint64_t> failing;
      for (std::uint64_t it = worker_id; it < options.iterations;
           it += threads) {
        // Per-iteration seeding: the mutation stream is a pure function of
        // (campaign seed, iteration index), independent of the thread count.
        Xoshiro256 rng(options.seed + 0x51ed2701ULL * (it + 1));
        const FaultMutation mutation =
            draw_fault_mutation(rng, harness.file_bytes());
        ++by_kind[static_cast<std::size_t>(mutation.kind)];
        switch (harness.check(mutation)) {
          case FaultOutcome::kRejected: ++rejected; break;
          case FaultOutcome::kBenign: ++benign; break;
          case FaultOutcome::kWrongAnswer:
            ++wrong_answer;
            failing.push_back(it);
            break;
          default:
            ++wrong_error;
            failing.push_back(it);
            break;
        }
      }
      std::lock_guard<std::mutex> lock(report_mutex);
      for (std::size_t k = 0; k < by_kind.size(); ++k) {
        report.by_kind[k] += by_kind[k];
      }
      report.rejected += rejected;
      report.benign += benign;
      report.wrong_answer += wrong_answer;
      report.wrong_error += wrong_error;
      for (const std::uint64_t it : failing) {
        if (report.failing_iterations.size() < 32) {
          report.failing_iterations.push_back(it);
        }
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(report_mutex);
      if (!first_error) first_error = std::current_exception();
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::uint32_t w = 0; w < threads; ++w) pool.emplace_back(worker, w);
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
  std::sort(report.failing_iterations.begin(),
            report.failing_iterations.end());
  return report;
}

}  // namespace sfc

// End-to-end benchmark driver for DPFS; perfbench/README.md describes the
// workloads, where their traffic comes from, and defines every metric.
//
// Boots an in-process deployment under --workdir (I/O servers on loopback
// TCP and a durable metadata database, in the client process or behind a
// dpfs-metad service as the workload asks), runs one workload as a closed
// loop for --seconds, checks every byte read back and every listing against
// a shadow copy, and prints one JSON line with the keys correct, attempted,
// failed and metrics:
//
//   dpfs_perfbench --workload fig11_collective --seed 1 --seconds 30
//       --trace 0 --workdir .bench_build/work
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the same loop and
// reports per-layer metrics measured outside-in: after each operation the
// driver calls the layers that operation passed through itself, with the
// operation's own inputs, and around the measured window it reads the
// servers' and the client's own instruments from the metrics registry.
#include <algorithm>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "client/collective.h"
#include "common/crc32.h"
#include "common/metrics.h"
#include "common/options.h"
#include "common/rng.h"
#include "core/cluster.h"
#include "net/connection.h"

namespace {

using namespace dpfs;
using Clock = std::chrono::steady_clock;

// Set-up runs this many times per benchmark run; setup_s is the median.
constexpr int kSetupRepeats = 5;
// Cycles run this long before the window opens, so connections are dialed
// and the servers' fd caches and the page cache are warm.
constexpr double kWarmupSeconds = 1.0;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0.0;
}

void FillRandom(SplitMix64& rng, MutableByteSpan out) {
  std::size_t i = 0;
  for (; i + 8 <= out.size(); i += 8) {
    const std::uint64_t word = rng.NextU64();
    std::memcpy(out.data() + i, &word, 8);
  }
  if (i < out.size()) {
    const std::uint64_t word = rng.NextU64();
    std::memcpy(out.data() + i, &word, out.size() - i);
  }
}

Bytes RandomBytes(std::uint64_t seed, std::size_t size) {
  SplitMix64 rng(seed);
  Bytes out(size);
  FillRandom(rng, out);
  return out;
}

// Nearest-rank quantile; NaN for an empty sample.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  const std::size_t rank = std::min(
      values.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(values.size())));
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(rank),
                   values.end());
  return values[rank];
}

client::IoOptions Combining(bool combine) {
  client::IoOptions options;
  options.combine = combine;
  return options;
}

layout::PlanOptions PlanFor(bool read, bool combine) {
  layout::PlanOptions options;
  options.direction = read ? layout::IoDirection::kRead : layout::IoDirection::kWrite;
  options.combine = combine;
  return options;
}

// The layout calls FileSystem::ReadRegion/WriteRegion make before an access
// is dispatched: the request plan and the walk over the region's brick runs.
// The client's own collection of those runs per brick is not included.
Status LayoutRegion(const client::FileHandle& handle, std::uint32_t client_id,
                    const layout::Region& region,
                    const layout::PlanOptions& options) {
  DPFS_RETURN_IF_ERROR(layout::PlanRegionAccess(handle.map,
                                                handle.record.distribution,
                                                client_id, region, options)
                           .status());
  return handle.map.ForEachRun(region, [](const layout::BrickRun&) {});
}

// The same for FileSystem::ReadBytes/WriteBytes.
Status LayoutBytes(const client::FileHandle& handle, std::uint32_t client_id,
                   std::uint64_t offset, std::uint64_t length,
                   const layout::PlanOptions& options) {
  DPFS_RETURN_IF_ERROR(layout::PlanByteAccess(handle.map,
                                              handle.record.distribution,
                                              client_id, offset, length,
                                              options)
                           .status());
  return handle.map.ForEachByteRun(offset, length,
                                   [](const layout::BrickRun&) {});
}

// Instruments parsed from the registry's text exposition: a counter as
// {value, 0}, a histogram as {count, sum}.
class RegistryView {
 public:
  static RegistryView Take() {
    RegistryView view;
    std::istringstream text(metrics::Registry::Global().TextSnapshot());
    std::string line;
    while (std::getline(text, line)) {
      std::istringstream fields(line);
      std::string kind;
      std::string name;
      fields >> kind >> name;
      std::pair<double, double> value{0, 0};
      if (kind == "counter") {
        fields >> value.first;
      } else if (kind == "histogram") {
        std::string field;
        while (fields >> field) {
          if (field.rfind("count=", 0) == 0) value.first = std::stod(field.substr(6));
          if (field.rfind("sum=", 0) == 0) value.second = std::stod(field.substr(4));
        }
      } else {
        continue;
      }
      view.values_[name] = value;
    }
    return view;
  }

  // Change since `before`, summed over the instruments whose name starts
  // with `prefix`, except `<prefix>ping` (the trace's own probes).
  [[nodiscard]] std::pair<double, double> DeltaSince(
      const RegistryView& before, const std::string& prefix) const {
    std::pair<double, double> total{0, 0};
    for (const auto& [name, value] : values_) {
      if (name.rfind(prefix, 0) != 0 || name == prefix + "ping") continue;
      const auto base = before.values_.find(name);
      if (base != before.values_.end()) {
        total.first -= base->second.first;
        total.second -= base->second.second;
      }
      total.first += value.first;
      total.second += value.second;
    }
    return total;
  }

 private:
  std::map<std::string, std::pair<double, double>> values_;
};

// Runs one task on `ranks` threads at once, one call per rank, and waits for
// all of them: a thread per compute node, as in the paper's runs.
class RankPool {
 public:
  explicit RankPool(std::uint32_t ranks)
      : statuses_(ranks), start_(ranks + 1), done_(ranks + 1) {
    for (std::uint32_t rank = 0; rank < ranks; ++rank) {
      threads_.emplace_back([this, rank] {
        for (start_.arrive_and_wait(); task_ != nullptr;
             start_.arrive_and_wait()) {
          statuses_[rank] = (*task_)(rank);
          done_.arrive_and_wait();
        }
      });
    }
  }
  ~RankPool() {
    task_ = nullptr;
    start_.arrive_and_wait();
    for (std::thread& thread : threads_) thread.join();
  }
  RankPool(const RankPool&) = delete;
  RankPool& operator=(const RankPool&) = delete;
  RankPool(RankPool&&) = delete;
  RankPool& operator=(RankPool&&) = delete;

  // The lowest failing rank's error, or Ok.
  Status Run(const std::function<Status(std::uint32_t)>& task) {
    task_ = &task;
    start_.arrive_and_wait();
    done_.arrive_and_wait();
    for (const Status& status : statuses_) {
      if (!status.ok()) return status;
    }
    return Status::Ok();
  }

 private:
  // Written by the caller only while every worker waits at a barrier.
  const std::function<Status(std::uint32_t)>* task_ = nullptr;
  std::vector<Status> statuses_;
  std::barrier<> start_;
  std::barrier<> done_;
  std::vector<std::thread> threads_;
};

enum class Kind { kRead, kWrite };

// What a run measured inside its window.
struct Window {
  // One sample per pass of the workload's cycle: the summed time of its
  // reads, of its writes, and of both.
  std::vector<double> read_s;
  std::vector<double> write_s;
  std::vector<double> cycle_s;
  // Operations completed in each whole second of the window.
  std::vector<double> per_second;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  double op_s = 0;  // summed time of the operations that succeeded
  std::uint64_t ops = 0;
  // Traced runs: outside-in spans summed over the window, in seconds.
  double layout_s = 0;
  double checksum_s = 0;
  double io_ping_s = 0;
  double meta_lookup_s = 0;
  std::uint64_t io_pings = 0;
  std::uint64_t meta_lookups = 0;
};

// Issues a workload's operations: times each while the window is open,
// counts failures and read-back mismatches, and in traced runs records the
// outside-in spans of the layers each operation used.
class Harness {
 public:
  // A non-empty `pings` (one connection per I/O server) turns tracing on.
  Harness(client::FileSystem& fs, std::uint64_t seed,
          std::vector<net::ServerConnection> pings)
      : fs_(fs), rng_(seed), pings_(std::move(pings)) {}

  client::FileSystem& fs() { return fs_; }
  SplitMix64& rng() { return rng_; }

  void OpenWindow() {
    measuring_ = true;
    opened_ = Clock::now();
  }
  Window CloseWindow() {
    measuring_ = false;
    return std::move(window_);
  }

  // Runs the client calls of one operation, timing them in the window.
  Status Time(Kind kind, const std::function<Status()>& op) {
    const Clock::time_point start = Clock::now();
    const Status status = op();
    const double seconds = SecondsSince(start);
    if (!status.ok()) Report("operation failed: " + status.ToString());
    if (!measuring_) return status;
    ++window_.attempted;
    if (!status.ok()) {
      ++window_.failed;
      cycle_failed_ = true;
      return status;
    }
    (kind == Kind::kRead ? cycle_read_s_ : cycle_write_s_) += seconds;
    window_.op_s += seconds;
    ++window_.ops;
    const auto slice = static_cast<std::size_t>(SecondsSince(opened_));
    if (slice >= window_.per_second.size()) window_.per_second.resize(slice + 1);
    ++window_.per_second[slice];
    return status;
  }

  // Ends one pass of the workload's cycle: its reads and its writes each
  // become one sample, so every operation kind moves the medians. A cycle
  // with a failed operation gives no sample.
  void EndCycle() {
    if (measuring_ && !cycle_failed_) {
      window_.read_s.push_back(cycle_read_s_);
      window_.write_s.push_back(cycle_write_s_);
      window_.cycle_s.push_back(cycle_read_s_ + cycle_write_s_);
    }
    cycle_read_s_ = 0;
    cycle_write_s_ = 0;
    cycle_failed_ = false;
  }

  // Traced runs only: calls the layers the last operation went through,
  // with its inputs. `plan` repeats its layout calls, one CRC-32C pass
  // covers its `wire_bytes` (the frame checksum), a ping to the next I/O
  // server takes a bare transport round trip, and an existence check of
  // `meta_path` takes a metadata lookup.
  void TraceLayers(std::uint64_t wire_bytes,
                   const std::function<Status()>& plan,
                   const std::string& meta_path) {
    if (pings_.empty() || !measuring_) return;
    if (plan) {
      const Clock::time_point start = Clock::now();
      const Status planned = plan();
      window_.layout_s += SecondsSince(start);
      if (!planned.ok()) Mismatch("re-plan: " + planned.ToString());
    }
    if (wire_bytes > 0) {
      if (scratch_.size() < wire_bytes) scratch_.resize(wire_bytes);
      const Clock::time_point start = Clock::now();
      checksum_sink_ ^= Crc32c(ByteSpan(scratch_).first(wire_bytes));
      window_.checksum_s += SecondsSince(start);
    }
    {
      net::ServerConnection& conn = pings_[next_ping_++ % pings_.size()];
      const Clock::time_point start = Clock::now();
      const Status pinged = conn.Ping();
      window_.io_ping_s += SecondsSince(start);
      ++window_.io_pings;
      if (!pinged.ok()) Mismatch("ping: " + pinged.ToString());
    }
    const Clock::time_point start = Clock::now();
    const Result<bool> exists = fs_.metadata().FileExists(meta_path);
    window_.meta_lookup_s += SecondsSince(start);
    ++window_.meta_lookups;
    if (!exists.ok()) Mismatch("lookup: " + exists.status().ToString());
  }

  // A read-back, listing or probe that disagrees with the shadow copy.
  void Mismatch(const std::string& what) {
    ++window_.mismatches;
    Report("mismatch: " + what);
  }

 private:
  void Report(const std::string& message) {
    if (++reports_ <= 10) std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  }

  client::FileSystem& fs_;
  SplitMix64 rng_;
  std::vector<net::ServerConnection> pings_;
  std::size_t next_ping_ = 0;
  Bytes scratch_;
  std::uint32_t checksum_sink_ = 0;
  bool measuring_ = false;
  Clock::time_point opened_;
  int reports_ = 0;
  double cycle_read_s_ = 0;
  double cycle_write_s_ = 0;
  bool cycle_failed_ = false;
  Window window_;
};

// One workload: the deployment it runs on, the files its set-up creates and
// the cycle of operations its loop repeats. Each keeps a shadow copy of what
// it wrote and checks reads and listings against it.
class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  Workload(Workload&&) = delete;
  Workload& operator=(Workload&&) = delete;

  [[nodiscard]] virtual core::ClusterOptions Deployment() const = 0;
  virtual Status Setup(const std::shared_ptr<client::FileSystem>& fs) = 0;
  // One pass of the cycle.
  virtual void Step(Harness& h) = 0;
  // Reads everything back after the window and compares with the shadow.
  virtual Status VerifyAll(client::FileSystem& fs) = 0;
};

// Each rank's data in three versions. A write always moves a rank's part of
// the file to another version, so a lost write shows on read-back.
class RankData {
 public:
  RankData(std::uint64_t seed, std::uint32_t ranks, std::size_t bytes)
      : ranks_(ranks) {
    for (std::uint64_t i = 0; i < kVersions * ranks; ++i) {
      data_.push_back(RandomBytes(seed * 0x9E3779B97F4A7C15ull + i, bytes));
    }
  }

  [[nodiscard]] const Bytes& at(int version, std::uint32_t rank) const {
    return data_[static_cast<std::size_t>(version) * ranks_ + rank];
  }
  // A version other than `current`; any version after a failed write (-1).
  static int Next(int current, SplitMix64& rng) {
    return static_cast<int>(
        (static_cast<std::uint64_t>(current + 1) + rng.NextBelow(kVersions - 1)) %
        kVersions);
  }

 private:
  static constexpr std::uint64_t kVersions = 3;
  std::uint32_t ranks_;
  std::vector<Bytes> data_;
};

core::ClusterOptions Servers(std::uint32_t count) {
  core::ClusterOptions options;
  options.num_servers = count;
  options.durable_metadata = true;
  return options;
}

// fig11_collective: the traffic of Fig 11 (bench/workloads.h
// FileLevelConfig, §8.1). Eight compute-node threads access a square byte
// array (*,BLOCK) through collective WriteAll/ReadAll over four I/O servers
// at each file level: linear (64 KiB bricks), multidim (256x256 tiles) and
// array (one brick per rank), without and with request combination, with
// the whole-brick reads of §3.2: the figure's six bars. The array is 2048
// bytes square instead of 32K so that a phase takes milliseconds; the
// bricks keep the paper's sizes, and every rank still touches every linear
// brick, the 8x over-fetch behind the Linear bars. A cycle writes each
// level both ways, then reads each back both ways. Metadata lives in the
// client process, the paper's model, and is idle in the window.
class Fig11Collective final : public Workload {
 public:
  explicit Fig11Collective(std::uint64_t seed)
      : ranks_(kRanks),
        data_(seed, kRanks, kDim * kChunkCols),
        buffers_(kRanks, Bytes(kDim * kChunkCols)) {}

  [[nodiscard]] core::ClusterOptions Deployment() const override {
    return Servers(4);
  }

  Status Setup(const std::shared_ptr<client::FileSystem>& fs) override {
    DPFS_ASSIGN_OR_RETURN(const layout::HpfPattern pattern,
                          layout::HpfPattern::Parse("(*,BLOCK)"));
    layout::ProcessGrid grid;
    grid.grid = {kRanks};
    DPFS_RETURN_IF_ERROR(fs->metadata().MakeDirectory("/fig11"));
    for (Level& level : levels_) {
      client::CreateOptions create;
      create.level = level.level;
      create.array_shape = {kDim, kDim};
      create.brick_shape = {kTile, kTile};
      create.pattern = pattern;
      create.chunk_grid = {kRanks};
      DPFS_ASSIGN_OR_RETURN(
          level.file, client::CollectiveFile::Create(fs, level.path, create, kRanks));
      DPFS_RETURN_IF_ERROR(level.file->SetHpfViews(pattern, grid));
      DPFS_ASSIGN_OR_RETURN(level.handle, fs->Open(level.path));
      DPFS_RETURN_IF_ERROR(ranks_.Run([&](std::uint32_t rank) {
        return level.file->WriteAll(rank, data_.at(0, rank));
      }));
      level.holds = 0;
    }
    return Status::Ok();
  }

  void Step(Harness& h) override {
    for (Level& level : levels_) {
      for (const bool combine : {false, true}) {
        const int next = RankData::Next(level.holds, h.rng());
        const Status status =
            Phase(h, level, Kind::kWrite, combine, [&](std::uint32_t rank) {
              return level.file->WriteAll(rank, data_.at(next, rank),
                                          Combining(combine));
            });
        level.holds = status.ok() ? next : -1;
      }
    }
    for (Level& level : levels_) {
      for (const bool combine : {false, true}) {
        const Status status =
            Phase(h, level, Kind::kRead, combine, [&](std::uint32_t rank) {
              return level.file->ReadAll(rank, buffers_[rank], Combining(combine));
            });
        if (status.ok() && !Holds(level)) h.Mismatch(level.path);
      }
    }
  }

  Status VerifyAll(client::FileSystem& /*fs*/) override {
    for (Level& level : levels_) {
      DPFS_RETURN_IF_ERROR(ranks_.Run([&](std::uint32_t rank) {
        return level.file->ReadAll(rank, buffers_[rank]);
      }));
      if (!Holds(level)) {
        return DataLossError(level.path + " differs from what was written");
      }
    }
    return Status::Ok();
  }

 private:
  static constexpr std::uint32_t kRanks = 8;
  static constexpr std::uint64_t kDim = 2048;
  static constexpr std::uint64_t kTile = 256;
  static constexpr std::uint64_t kChunkCols = kDim / kRanks;

  struct Level {
    layout::FileLevel level;
    std::string path;
    std::unique_ptr<client::CollectiveFile> file;
    client::FileHandle handle;  // for re-planning a rank's access
    int holds = -1;             // version every rank's chunk holds
  };

  // Whether the last read of `level` returned the version it holds.
  bool Holds(const Level& level) const {
    if (level.holds < 0) return true;
    for (std::uint32_t rank = 0; rank < kRanks; ++rank) {
      if (buffers_[rank] != data_.at(level.holds, rank)) return false;
    }
    return true;
  }

  // One collective phase on every rank, timed as one operation.
  Status Phase(Harness& h, Level& level, Kind kind, bool combine,
               const std::function<Status(std::uint32_t)>& transfer) {
    const std::uint64_t wire_before = level.file->report().transfer_bytes;
    const Status status = h.Time(kind, [&] { return ranks_.Run(transfer); });
    if (!status.ok()) return status;
    h.TraceLayers(
        level.file->report().transfer_bytes - wire_before,
        [&]() -> Status {
          const layout::PlanOptions options = PlanFor(kind == Kind::kRead, combine);
          for (std::uint32_t rank = 0; rank < kRanks; ++rank) {
            DPFS_RETURN_IF_ERROR(
                LayoutRegion(level.handle, rank, *level.file->view(rank), options));
          }
          return Status::Ok();
        },
        level.path);
    return status;
  }

  RankPool ranks_;
  RankData data_;
  std::vector<Bytes> buffers_;  // one read buffer per rank
  Level levels_[3] = {
      {layout::FileLevel::kLinear, "/fig11/linear", nullptr, {}, -1},
      {layout::FileLevel::kMultidim, "/fig11/multidim", nullptr, {}, -1},
      {layout::FileLevel::kArray, "/fig11/array", nullptr, {}, -1},
  };
};

// fig13_striped: the traffic of Fig 13 (bench/workloads.h
// StripingAlgConfig, §8.2). Eight compute-node threads each write and read
// their own contiguous block of one linear file with 64 KiB bricks, placed
// by the greedy algorithm of Fig 8 over eight I/O servers whose §4.1
// per-brick costs are 1 for one half (class 1) and 3 for the other (class
// 3). Blocks are 2 MiB instead of 32 MB. A cycle runs the figure's four
// bars: write, combined write, read, combined read; without combination
// every brick is its own request. On loopback the servers are equally
// fast, so the class-1 half, holding three bricks for each one on the other
// half, carries three quarters of the traffic.
class Fig13Striped final : public Workload {
 public:
  explicit Fig13Striped(std::uint64_t seed)
      : ranks_(kRanks),
        data_(seed, kRanks, kBlock),
        buffers_(kRanks, Bytes(kBlock)),
        reports_(kRanks) {}

  [[nodiscard]] core::ClusterOptions Deployment() const override {
    core::ClusterOptions options = Servers(kServers);
    options.performance.assign(kServers, 1);
    std::fill(options.performance.begin() + kServers / 2,
              options.performance.end(), 3);
    return options;
  }

  Status Setup(const std::shared_ptr<client::FileSystem>& fs) override {
    client::CreateOptions create;
    create.total_bytes = kBlock * kRanks;
    create.placement = layout::PlacementPolicy::kGreedy;
    DPFS_ASSIGN_OR_RETURN(const client::FileHandle handle,
                          fs->Create(kPath, create));
    for (std::uint32_t rank = 0; rank < kRanks; ++rank) {
      handles_.push_back(handle);
      handles_.back().client_id = rank;
    }
    DPFS_RETURN_IF_ERROR(ranks_.Run([&](std::uint32_t rank) {
      return fs->WriteBytes(handles_[rank], rank * kBlock, data_.at(0, rank));
    }));
    holds_ = 0;
    return Status::Ok();
  }

  void Step(Harness& h) override {
    for (const bool combine : {false, true}) {
      const int next = RankData::Next(holds_, h.rng());
      const Status status = Phase(h, Kind::kWrite, combine, [&](std::uint32_t rank) {
        return h.fs().WriteBytes(handles_[rank], rank * kBlock,
                                 data_.at(next, rank), Combining(combine),
                                 &reports_[rank]);
      });
      holds_ = status.ok() ? next : -1;
    }
    for (const bool combine : {false, true}) {
      const Status status = Phase(h, Kind::kRead, combine, [&](std::uint32_t rank) {
        return h.fs().ReadBytes(handles_[rank], rank * kBlock, buffers_[rank],
                                Combining(combine), &reports_[rank]);
      });
      if (status.ok() && !Holds()) h.Mismatch(kPath);
    }
  }

  Status VerifyAll(client::FileSystem& fs) override {
    DPFS_RETURN_IF_ERROR(ranks_.Run([&](std::uint32_t rank) {
      return fs.ReadBytes(handles_[rank], rank * kBlock, buffers_[rank]);
    }));
    if (!Holds()) {
      return DataLossError(std::string(kPath) + " differs from what was written");
    }
    return Status::Ok();
  }

 private:
  static constexpr std::uint32_t kRanks = 8;
  static constexpr std::uint32_t kServers = 8;
  static constexpr std::uint64_t kBlock = 2 << 20;
  static constexpr const char* kPath = "/fig13";

  bool Holds() const {
    if (holds_ < 0) return true;
    for (std::uint32_t rank = 0; rank < kRanks; ++rank) {
      if (buffers_[rank] != data_.at(holds_, rank)) return false;
    }
    return true;
  }

  // Every rank's access at once, timed as one operation.
  Status Phase(Harness& h, Kind kind, bool combine,
               const std::function<Status(std::uint32_t)>& access) {
    std::fill(reports_.begin(), reports_.end(), client::IoReport{});
    const Status status = h.Time(kind, [&] { return ranks_.Run(access); });
    if (!status.ok()) return status;
    std::uint64_t wire_bytes = 0;
    for (const client::IoReport& report : reports_) wire_bytes += report.transfer_bytes;
    h.TraceLayers(
        wire_bytes,
        [&]() -> Status {
          const layout::PlanOptions options = PlanFor(kind == Kind::kRead, combine);
          for (std::uint32_t rank = 0; rank < kRanks; ++rank) {
            DPFS_RETURN_IF_ERROR(
                LayoutBytes(handles_[rank], rank, rank * kBlock, kBlock, options));
          }
          return Status::Ok();
        },
        kPath);
    return status;
  }

  RankPool ranks_;
  RankData data_;
  std::vector<Bytes> buffers_;
  std::vector<client::IoReport> reports_;
  std::vector<client::FileHandle> handles_;  // one per rank, client_id = rank
  int holds_ = -1;  // version every rank's block holds
};

// namespace_churn: one user's namespace commands, as the paper's user
// interface issues them (ls, rm, cp into DPFS; plus the shell's mv and
// stat), through a dpfs-metad service over a durable database. A cycle runs
// create, list, rename, open-and-read, remove and stat in 16 directories.
// Creates, renames, removes and stats churn a standing population of 512
// files that are never written; open-and-read goes to one of 64 small files
// (16 KiB, one 4 KiB brick per server) filled at set-up and left in place.
// The client's lookup cache is off (TTL 0), so every operation is a metad
// round trip (a WAL commit for each mutation) whatever the throughput, and
// renames, removes and reads also send every I/O server a small request.
// The churned files have no subfiles, so those requests cost the servers a
// path lookup, not file-system allocation: per-request overheads dominate
// and bandwidth does not matter.
class NamespaceChurn final : public Workload {
 public:
  explicit NamespaceChurn(std::uint64_t seed)
      : seed_(seed), names_(kDirs), buffer_(kFileBytes) {}

  [[nodiscard]] core::ClusterOptions Deployment() const override {
    core::ClusterOptions options = Servers(kServers);
    options.start_metadata_service = true;
    options.metadata_cache_ttl = std::chrono::milliseconds(0);
    return options;
  }

  Status Setup(const std::shared_ptr<client::FileSystem>& fs) override {
    DPFS_RETURN_IF_ERROR(fs->metadata().MakeDirectory("/ns"));
    for (std::uint64_t d = 0; d < kDirs; ++d) {
      DPFS_RETURN_IF_ERROR(fs->metadata().MakeDirectory(Dir(d)));
    }
    for (std::uint64_t i = 0; i < kDataFiles; ++i) {
      const LiveFile file = NewFile(i % kDirs);
      DPFS_ASSIGN_OR_RETURN(client::FileHandle handle,
                            fs->Create(Path(file), SmallFile()));
      DPFS_RETURN_IF_ERROR(fs->WriteBytes(handle, 0, Content(file.id)));
      names_[file.dir].insert(Name(file));
      data_.push_back(file);
    }
    for (std::uint64_t i = 0; i < kChurnFiles; ++i) {
      const LiveFile file = NewFile(i % kDirs);
      DPFS_RETURN_IF_ERROR(fs->Create(Path(file), SmallFile()).status());
      Add(file);
    }
    return Status::Ok();
  }

  void Step(Harness& h) override {
    CreateStep(h);
    ListStep(h);
    RenameStep(h);
    ReadStep(h);
    RemoveStep(h);
    StatStep(h);
  }

  Status VerifyAll(client::FileSystem& fs) override {
    for (std::uint64_t d = 0; d < kDirs; ++d) {
      DPFS_ASSIGN_OR_RETURN(client::MetadataService::Listing listing,
                            fs.metadata().ListDirectory(Dir(d)));
      if (!SameNames(listing, d)) {
        return DataLossError("listing of " + Dir(d) +
                             " differs from the files created");
      }
    }
    for (const LiveFile& file : data_) {
      DPFS_ASSIGN_OR_RETURN(client::FileHandle handle, fs.Open(Path(file)));
      DPFS_RETURN_IF_ERROR(fs.ReadBytes(handle, 0, buffer_));
      if (buffer_ != Content(file.id)) {
        return DataLossError("contents of " + Path(file) + " differ");
      }
    }
    return Status::Ok();
  }

 private:
  static constexpr std::uint32_t kServers = 4;
  static constexpr std::uint64_t kDirs = 16;
  static constexpr std::uint64_t kChurnFiles = 512;
  static constexpr std::uint64_t kDataFiles = 64;
  static constexpr std::uint64_t kFileBytes = 16 << 10;

  // The file <Dir(dir)>/f<id>; a data file holds Content(id).
  struct LiveFile {
    std::uint64_t dir = 0;
    std::uint64_t id = 0;
  };

  static std::string Dir(std::uint64_t dir) {
    return (dir < 10 ? "/ns/d0" : "/ns/d") + std::to_string(dir);
  }
  static std::string Name(const LiveFile& file) {
    return "f" + std::to_string(file.id);
  }
  static std::string Path(const LiveFile& file) {
    return Dir(file.dir) + "/" + Name(file);
  }

  static client::CreateOptions SmallFile() {
    client::CreateOptions create;
    create.total_bytes = kFileBytes;
    create.brick_bytes = kFileBytes / kServers;
    return create;
  }

  Bytes Content(std::uint64_t id) const {
    return RandomBytes(seed_ * 0x100000001B3ull + id, kFileBytes);
  }
  LiveFile NewFile(std::uint64_t dir) { return LiveFile{dir, next_id_++}; }
  void Add(const LiveFile& file) {
    names_[file.dir].insert(Name(file));
    live_.push_back(file);
  }
  bool SameNames(client::MetadataService::Listing& listing, std::uint64_t dir) {
    std::sort(listing.files.begin(), listing.files.end());
    return std::equal(listing.files.begin(), listing.files.end(),
                      names_[dir].begin(), names_[dir].end());
  }

  void CreateStep(Harness& h) {
    const LiveFile file = NewFile(h.rng().NextBelow(kDirs));
    const std::string path = Path(file);
    client::FileHandle handle;
    const Status status = h.Time(Kind::kWrite, [&]() -> Status {
      DPFS_ASSIGN_OR_RETURN(handle, h.fs().Create(path, SmallFile()));
      return Status::Ok();
    });
    if (!status.ok()) return;
    Add(file);
    h.TraceLayers(
        0,
        [&] {
          return layout::BrickDistribution::Create(
                     layout::PlacementPolicy::kRoundRobin,
                     handle.map.num_bricks(),
                     std::vector<std::uint32_t>(kServers, 1))
              .status();
        },
        path);
  }

  void ListStep(Harness& h) {
    const std::uint64_t dir = h.rng().NextBelow(kDirs);
    client::MetadataService::Listing listing;
    const Status status = h.Time(Kind::kRead, [&]() -> Status {
      DPFS_ASSIGN_OR_RETURN(listing, h.fs().metadata().ListDirectory(Dir(dir)));
      return Status::Ok();
    });
    if (!status.ok()) return;
    if (!SameNames(listing, dir)) h.Mismatch("listing of " + Dir(dir));
    h.TraceLayers(0, nullptr, Dir(dir));
  }

  void RenameStep(Harness& h) {
    const std::size_t index = h.rng().NextBelow(live_.size());
    const LiveFile renamed = NewFile(h.rng().NextBelow(kDirs));
    const std::string from = Path(live_[index]);
    const std::string to = Path(renamed);
    const Status status =
        h.Time(Kind::kWrite, [&] { return h.fs().Rename(from, to); });
    if (!status.ok()) return;
    names_[live_[index].dir].erase(Name(live_[index]));
    names_[renamed.dir].insert(Name(renamed));
    live_[index] = renamed;
    h.TraceLayers(0, nullptr, to);
  }

  void ReadStep(Harness& h) {
    const LiveFile file = data_[h.rng().NextBelow(data_.size())];
    const std::string path = Path(file);
    client::FileHandle handle;
    client::IoReport report;
    const Status status = h.Time(Kind::kRead, [&]() -> Status {
      DPFS_ASSIGN_OR_RETURN(handle, h.fs().Open(path));
      return h.fs().ReadBytes(handle, 0, buffer_, {}, &report);
    });
    if (!status.ok()) return;
    if (buffer_ != Content(file.id)) h.Mismatch("contents of " + path);
    h.TraceLayers(
        report.transfer_bytes,
        [&] {
          return LayoutBytes(handle, handle.client_id, 0, kFileBytes,
                             PlanFor(true, true));
        },
        path);
  }

  void RemoveStep(Harness& h) {
    const std::size_t index = h.rng().NextBelow(live_.size());
    const std::string path = Path(live_[index]);
    const Status status =
        h.Time(Kind::kWrite, [&] { return h.fs().Remove(path); });
    if (!status.ok()) return;
    names_[live_[index].dir].erase(Name(live_[index]));
    live_[index] = live_.back();
    live_.pop_back();
    h.TraceLayers(0, nullptr, path);
  }

  void StatStep(Harness& h) {
    const std::string path = Path(live_[h.rng().NextBelow(live_.size())]);
    client::FileRecord record;
    const Status status = h.Time(Kind::kRead, [&]() -> Status {
      DPFS_ASSIGN_OR_RETURN(record, h.fs().metadata().LookupFile(path));
      return Status::Ok();
    });
    if (!status.ok()) return;
    if (record.meta.path != path || record.meta.size_bytes != kFileBytes) {
      h.Mismatch("stat of " + path);
    }
    h.TraceLayers(0, nullptr, path);
  }

  std::uint64_t seed_;
  std::uint64_t next_id_ = 0;
  std::vector<LiveFile> data_;  // filled at set-up, only ever read
  std::vector<LiveFile> live_;  // churned, never written
  std::vector<std::set<std::string>> names_;  // file names per directory
  Bytes buffer_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed) {
  if (name == "fig11_collective") return std::make_unique<Fig11Collective>(seed);
  if (name == "fig13_striped") return std::make_unique<Fig13Striped>(seed);
  if (name == "namespace_churn") return std::make_unique<NamespaceChurn>(seed);
  return nullptr;
}

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

// The rate is taken per whole second of the window and its median
// reported: on a shared machine a few slow seconds would otherwise move it
// by tens of percent from run to run.
std::vector<Metric> EndToEnd(const Window& window, std::size_t whole_seconds,
                             const std::vector<double>& setup_s) {
  std::vector<double> per_second = window.per_second;
  per_second.resize(whole_seconds, 0);
  return {
      {"read_ms", Quantile(window.read_s, 0.5) * 1e3, "ms"},
      {"write_ms", Quantile(window.write_s, 0.5) * 1e3, "ms"},
      {"ops_per_s", Quantile(per_second, 0.5), "1/s"},
      {"setup_s", Quantile(setup_s, 0.5), "s"},
  };
}

std::vector<Metric> PerLayer(const Window& window, const RegistryView& before,
                             const RegistryView& after) {
  const auto ops = static_cast<double>(window.ops);
  const auto [io_requests, io_service_us] =
      after.DeltaSince(before, "io_server.service_time_us.");
  const auto [meta_rpcs, meta_service_us] =
      after.DeltaSince(before, "metad.service_time_us.");
  const auto [statements, statement_us] =
      after.DeltaSince(before, "metadb.execute_us");
  const auto [acquires, acquire_us] =
      after.DeltaSince(before, "conn_pool.acquire_us");
  const double transfer = after.DeltaSince(before, "client.transfer_bytes").first;
  const double useful = after.DeltaSince(before, "client.useful_bytes").first;
  const auto probes = static_cast<double>(window.meta_lookups);
  return {
      {"client_op_us", Ratio(window.op_s * 1e6, ops), "us"},
      {"layout_plan_us", Ratio(window.layout_s * 1e6, ops), "us"},
      {"checksum_us", Ratio(window.checksum_s * 1e6, ops), "us"},
      {"pool_acquire_us", Ratio(acquire_us, acquires), "us"},
      {"io_rtt_us",
       Ratio(window.io_ping_s * 1e6, static_cast<double>(window.io_pings)),
       "us"},
      {"io_service_us", Ratio(io_service_us, io_requests), "us"},
      {"io_requests_per_op", Ratio(io_requests, ops), "count"},
      {"meta_lookup_us", Ratio(window.meta_lookup_s * 1e6, probes), "us"},
      {"meta_service_us", Ratio(meta_service_us, meta_rpcs), "us"},
      // Without a metad the probes are local queries, not requests.
      {"meta_rpcs_per_op", Ratio(std::max(0.0, meta_rpcs - probes), ops), "count"},
      {"metadb_statement_us", Ratio(statement_us, statements), "us"},
      {"wire_per_useful", Ratio(transfer, useful), "ratio"},
  };
}

std::string FormatResult(bool correct, const Window& window,
                         const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(window.attempted) +
                    ", \"failed\": " + std::to_string(window.failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out += std::string(i == 0 ? "" : ", ") + "\"" + metrics[i].name +
           "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}}";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::filesystem::path workdir;
};

Result<Args> ParseArgs(int argc, char** argv) {
  DPFS_ASSIGN_OR_RETURN(const Options opts, Options::Parse(argc, argv));
  Args args;
  args.workload = opts.GetString("workload", "");
  args.seed = static_cast<std::uint64_t>(opts.GetInt("seed", 1));
  args.seconds = opts.GetDouble("seconds", 10);
  args.trace = opts.GetBool("trace", false);
  args.workdir = opts.GetString("workdir", "");
  if (args.workdir.empty() || !(args.seconds > 0)) {
    return InvalidArgumentError("--workdir and a positive --seconds are required");
  }
  return args;
}

Status Run(const Args& args) {
  const std::filesystem::path root = args.workdir / "cluster";
  std::vector<double> setup_s;
  std::unique_ptr<core::LocalCluster> cluster;
  std::unique_ptr<Workload> workload;
  for (int i = 0; i < kSetupRepeats; ++i) {
    // The previous deployment is torn down outside the timed part.
    workload.reset();
    cluster.reset();
    std::error_code ignored;
    std::filesystem::remove_all(root, ignored);
    workload = MakeWorkload(args.workload, args.seed);
    if (workload == nullptr) {
      return InvalidArgumentError("unknown workload '" + args.workload + "'");
    }
    core::ClusterOptions options = workload->Deployment();
    options.root_dir = root;
    const Clock::time_point start = Clock::now();
    DPFS_ASSIGN_OR_RETURN(cluster, core::LocalCluster::Start(std::move(options)));
    DPFS_RETURN_IF_ERROR(workload->Setup(cluster->fs()));
    setup_s.push_back(SecondsSince(start));
  }
  client::FileSystem& fs = *cluster->fs();

  std::vector<net::ServerConnection> pings;
  if (args.trace) {
    DPFS_ASSIGN_OR_RETURN(const std::vector<client::ServerInfo> servers,
                          fs.metadata().ListServers());
    for (const client::ServerInfo& server : servers) {
      DPFS_ASSIGN_OR_RETURN(net::ServerConnection conn,
                            net::ServerConnection::Connect(server.endpoint));
      pings.push_back(std::move(conn));
    }
  }
  Harness harness(fs, args.seed, std::move(pings));
  const Clock::time_point warmup = Clock::now();
  while (SecondsSince(warmup) < kWarmupSeconds) {
    workload->Step(harness);
    harness.EndCycle();
  }

  const RegistryView before = RegistryView::Take();
  harness.OpenWindow();
  const Clock::time_point start = Clock::now();
  while (SecondsSince(start) < args.seconds) {
    workload->Step(harness);
    harness.EndCycle();
  }
  const double elapsed = SecondsSince(start);
  const Window window = harness.CloseWindow();
  const RegistryView after = RegistryView::Take();

  const Status verified = workload->VerifyAll(fs);
  if (!verified.ok()) {
    std::fprintf(stderr, "perfbench: final check failed: %s\n",
                 verified.ToString().c_str());
  }
  // The tail is reported here, not as a metric: from run to run on a shared
  // host it follows the host's load more than the code.
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %zu cycles (90th percentile %.3f ms), "
               "%llu operations, %llu failed, %llu mismatches in %.2f s; "
               "set-up %.3f s to %.3f s\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed),
               window.cycle_s.size(), Quantile(window.cycle_s, 0.9) * 1e3,
               static_cast<unsigned long long>(window.attempted),
               static_cast<unsigned long long>(window.failed),
               static_cast<unsigned long long>(window.mismatches), elapsed,
               *std::min_element(setup_s.begin(), setup_s.end()),
               *std::max_element(setup_s.begin(), setup_s.end()));
  const std::vector<Metric> metrics =
      args.trace ? PerLayer(window, before, after)
                 : EndToEnd(window, static_cast<std::size_t>(args.seconds),
                            setup_s);
  for (const Metric& metric : metrics) {
    if (!std::isfinite(metric.value)) {
      return InternalError(std::string("no samples for ") + metric.name);
    }
  }
  const bool correct = verified.ok() && window.mismatches == 0;
  std::printf("%s\n", FormatResult(correct, window, metrics).c_str());
  return Status::Ok();
}

}  // namespace

int main(int argc, char** argv) {
  const dpfs::Result<Args> args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr,
                 "usage: dpfs_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --workdir DIR\n%s\n",
                 args.status().ToString().c_str());
    return 2;
  }
  const dpfs::Status status = Run(args.value());
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

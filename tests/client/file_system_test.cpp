// FileSystem API tests against a real in-process cluster: every byte here
// travels over loopback TCP to IoServer subfile stores.
#include "client/file_system.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/rng.h"
#include "core/cluster.h"

namespace dpfs::client {
namespace {

Bytes PatternBytes(std::size_t n, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Bytes data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<std::uint8_t>(rng.NextU64());
  }
  return data;
}

/// Every request the process's I/O servers received: one counter per
/// opcode they serve, plus the ones that failed to decode.
std::uint64_t IoServerRequests() {
  std::uint64_t total = metrics::GetCounter("io_server.bad_requests").value();
  for (const char* op :
       {"ping", "read", "write", "delete", "shutdown", "list", "metrics"}) {
    total +=
        metrics::GetCounter(std::string("io_server.requests.") + op).value();
  }
  return total;
}

class FileSystemTest : public ::testing::Test {
 protected:
  FileSystemTest() {
    core::ClusterOptions options;
    options.num_servers = 4;
    cluster_ = core::LocalCluster::Start(std::move(options)).value();
    fs_ = cluster_->fs();
  }

  std::unique_ptr<core::LocalCluster> cluster_;
  std::shared_ptr<FileSystem> fs_;
};

TEST_F(FileSystemTest, LinearCreateWriteReadBytes) {
  CreateOptions options;
  options.level = layout::FileLevel::kLinear;
  options.total_bytes = 10000;
  options.brick_bytes = 1024;
  FileHandle handle = fs_->Create("/lin.bin", options).value();

  const Bytes data = PatternBytes(10000, 1);
  ASSERT_TRUE(fs_->WriteBytes(handle, 0, data).ok());
  Bytes read(10000);
  ASSERT_TRUE(fs_->ReadBytes(handle, 0, read).ok());
  EXPECT_EQ(read, data);
}

TEST_F(FileSystemTest, PartialReadAtOffsetAcrossBricks) {
  CreateOptions options;
  options.total_bytes = 4096;
  options.brick_bytes = 256;
  FileHandle handle = fs_->Create("/f", options).value();
  const Bytes data = PatternBytes(4096, 2);
  ASSERT_TRUE(fs_->WriteBytes(handle, 0, data).ok());

  Bytes window(700);
  ASSERT_TRUE(fs_->ReadBytes(handle, 200, window).ok());
  EXPECT_TRUE(std::equal(window.begin(), window.end(), data.begin() + 200));
}

TEST_F(FileSystemTest, WritePastCapacityRejected) {
  CreateOptions options;
  options.total_bytes = 100;
  FileHandle handle = fs_->Create("/tiny", options).value();
  const Bytes data(101, 0);
  EXPECT_EQ(fs_->WriteBytes(handle, 0, data).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(fs_->WriteBytes(handle, 50, Bytes(51, 0)).code(),
            StatusCode::kOutOfRange);
  EXPECT_TRUE(fs_->WriteBytes(handle, 50, Bytes(50, 0)).ok());
}

TEST_F(FileSystemTest, CreateRequiresSize) {
  CreateOptions options;  // neither total_bytes nor array_shape
  EXPECT_FALSE(fs_->Create("/f", options).ok());
}

TEST_F(FileSystemTest, CreateInMissingDirectoryFails) {
  CreateOptions options;
  options.total_bytes = 10;
  EXPECT_FALSE(fs_->Create("/no/such/dir/f", options).ok());
}

TEST_F(FileSystemTest, OpenReturnsSameGeometry) {
  CreateOptions options;
  options.level = layout::FileLevel::kMultidim;
  options.element_size = 4;
  options.array_shape = {64, 64};
  options.brick_shape = {16, 16};
  const FileHandle created = fs_->Create("/m", options).value();
  const FileHandle opened = fs_->Open("/m").value();
  EXPECT_EQ(opened.map.num_bricks(), created.map.num_bricks());
  EXPECT_EQ(opened.map.brick_bytes(), created.map.brick_bytes());
  EXPECT_EQ(opened.meta().array_shape, (layout::Shape{64, 64}));
  for (layout::BrickId b = 0; b < created.map.num_bricks(); ++b) {
    EXPECT_EQ(opened.record.distribution.server_for(b),
              created.record.distribution.server_for(b));
  }
}

TEST_F(FileSystemTest, MultidimRegionWriteReadRoundTrip) {
  CreateOptions options;
  options.level = layout::FileLevel::kMultidim;
  options.array_shape = {32, 32};
  options.brick_shape = {8, 8};
  FileHandle handle = fs_->Create("/grid", options).value();

  // Write the whole array, then read back an interior region.
  const Bytes all = PatternBytes(32 * 32, 3);
  ASSERT_TRUE(fs_->WriteRegion(handle, {{0, 0}, {32, 32}}, all).ok());

  const layout::Region window{{5, 7}, {10, 12}};
  Bytes read(10 * 12);
  ASSERT_TRUE(fs_->ReadRegion(handle, window, read).ok());
  for (std::uint64_t r = 0; r < 10; ++r) {
    for (std::uint64_t c = 0; c < 12; ++c) {
      EXPECT_EQ(read[r * 12 + c], all[(r + 5) * 32 + (c + 7)])
          << "(" << r << "," << c << ")";
    }
  }
}

TEST_F(FileSystemTest, MultidimColumnAccess) {
  CreateOptions options;
  options.level = layout::FileLevel::kMultidim;
  options.array_shape = {64, 64};
  options.brick_shape = {16, 16};
  FileHandle handle = fs_->Create("/cols", options).value();
  const Bytes all = PatternBytes(64 * 64, 4);
  ASSERT_TRUE(fs_->WriteRegion(handle, {{0, 0}, {64, 64}}, all).ok());

  Bytes column(64);
  ASSERT_TRUE(fs_->ReadRegion(handle, {{0, 13}, {64, 1}}, column).ok());
  for (std::uint64_t r = 0; r < 64; ++r) {
    EXPECT_EQ(column[r], all[r * 64 + 13]) << "row " << r;
  }
}

TEST_F(FileSystemTest, DisjointRegionWritesCompose) {
  CreateOptions options;
  options.level = layout::FileLevel::kMultidim;
  options.array_shape = {16, 16};
  options.brick_shape = {4, 4};
  FileHandle handle = fs_->Create("/quad", options).value();

  // Four clients write four quadrants.
  for (std::uint32_t q = 0; q < 4; ++q) {
    const layout::Region quadrant{{(q / 2) * 8, (q % 2) * 8}, {8, 8}};
    const Bytes data(64, static_cast<std::uint8_t>(q + 1));
    handle.client_id = q;
    ASSERT_TRUE(fs_->WriteRegion(handle, quadrant, data).ok());
  }
  Bytes all(256);
  ASSERT_TRUE(fs_->ReadRegion(handle, {{0, 0}, {16, 16}}, all).ok());
  EXPECT_EQ(all[0], 1);
  EXPECT_EQ(all[15], 2);
  EXPECT_EQ(all[8 * 16], 3);
  EXPECT_EQ(all[8 * 16 + 15], 4);
}

TEST_F(FileSystemTest, ArrayLevelChunkCheckpoint) {
  CreateOptions options;
  options.level = layout::FileLevel::kArray;
  options.array_shape = {32, 32};
  options.pattern = layout::HpfPattern::Parse("(BLOCK,BLOCK)").value();
  options.num_chunks = 4;
  FileHandle handle = fs_->Create("/ckpt", options).value();
  EXPECT_EQ(handle.map.num_bricks(), 4u);

  const layout::HpfPattern pattern = *handle.meta().pattern;
  layout::ProcessGrid grid;
  grid.grid = handle.meta().chunk_grid;
  std::vector<Bytes> chunks;
  for (std::uint64_t rank = 0; rank < 4; ++rank) {
    const layout::Region chunk =
        layout::ChunkForProcess({32, 32}, pattern, grid, rank).value();
    chunks.push_back(PatternBytes(chunk.num_elements(), 100 + rank));
    handle.client_id = static_cast<std::uint32_t>(rank);
    IoReport report;
    ASSERT_TRUE(fs_->WriteRegion(handle, chunk, chunks.back(), {}, &report)
                    .ok());
    // A chunk is one brick: exactly one request (§3.3).
    EXPECT_EQ(report.requests, 1u);
  }
  for (std::uint64_t rank = 0; rank < 4; ++rank) {
    const layout::Region chunk =
        layout::ChunkForProcess({32, 32}, pattern, grid, rank).value();
    Bytes restored(chunk.num_elements());
    ASSERT_TRUE(fs_->ReadRegion(handle, chunk, restored).ok());
    EXPECT_EQ(restored, chunks[rank]);
  }
}

TEST_F(FileSystemTest, ReadRegionBufferSizeChecked) {
  CreateOptions options;
  options.level = layout::FileLevel::kMultidim;
  options.array_shape = {8, 8};
  options.brick_shape = {4, 4};
  FileHandle handle = fs_->Create("/s", options).value();
  Bytes wrong(63);
  EXPECT_FALSE(fs_->ReadRegion(handle, {{0, 0}, {8, 8}}, wrong).ok());
  Bytes data(63);
  EXPECT_FALSE(fs_->WriteRegion(handle, {{0, 0}, {8, 8}}, data).ok());
}

TEST_F(FileSystemTest, DatatypeVectorColumnRoundTrip) {
  // An 8x8 byte matrix stored as a linear file; access column 3 via a
  // derived vector datatype (the MPI-IO idiom from §6).
  CreateOptions options;
  options.total_bytes = 64;
  options.brick_bytes = 16;
  FileHandle handle = fs_->Create("/mat", options).value();
  const Bytes matrix = PatternBytes(64, 5);
  ASSERT_TRUE(fs_->WriteBytes(handle, 0, matrix).ok());

  const Datatype column = Datatype::Vector(8, 1, 8, Datatype::Bytes(1)).value();
  Bytes col(8);
  ASSERT_TRUE(fs_->ReadType(handle, 3, column, col).ok());
  for (std::size_t r = 0; r < 8; ++r) {
    EXPECT_EQ(col[r], matrix[r * 8 + 3]);
  }

  // Overwrite the column and verify neighbours are untouched.
  Bytes new_col(8, 0xEE);
  ASSERT_TRUE(fs_->WriteType(handle, 3, column, new_col).ok());
  Bytes after(64);
  ASSERT_TRUE(fs_->ReadBytes(handle, 0, after).ok());
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t c = 0; c < 8; ++c) {
      if (c == 3) {
        EXPECT_EQ(after[r * 8 + c], 0xEE);
      } else {
        EXPECT_EQ(after[r * 8 + c], matrix[r * 8 + c]);
      }
    }
  }
}

TEST_F(FileSystemTest, SubarrayDatatypeMatchesRegionRead) {
  // A linear file holding a flattened 32x32 array: reading a subarray via
  // the datatype path must agree with the region path.
  CreateOptions options;
  options.level = layout::FileLevel::kLinear;
  options.array_shape = {32, 32};
  options.brick_bytes = 128;
  FileHandle handle = fs_->Create("/sub", options).value();
  const Bytes all = PatternBytes(32 * 32, 31);
  ASSERT_TRUE(fs_->WriteRegion(handle, {{0, 0}, {32, 32}}, all).ok());

  const Datatype subarray =
      Datatype::Subarray({32, 32}, {5, 7}, {10, 12}, 1).value();
  Bytes via_type(subarray.size());
  ASSERT_TRUE(fs_->ReadType(handle, 0, subarray, via_type).ok());

  Bytes via_region(10 * 12);
  ASSERT_TRUE(fs_->ReadRegion(handle, {{5, 7}, {10, 12}}, via_region).ok());
  EXPECT_EQ(via_type, via_region);
}

TEST_F(FileSystemTest, ListIoAgreesWithPerExtentPath) {
  // A datatype access is one plan over all its extents
  // (docs/NONCONTIGUOUS_IO.md). Whole-brick and sieve reads of it must
  // return the bytes that reading each extent on its own returns, and with
  // combination no server gets more than one request. Stride 24 over
  // 64-byte bricks splits the extents across bricks and servers.
  CreateOptions options;
  options.total_bytes = 4096;
  options.brick_bytes = 64;
  FileHandle handle = fs_->Create("/listio", options).value();
  const Bytes base = PatternBytes(4096, 77);
  ASSERT_TRUE(fs_->WriteBytes(handle, 0, base).ok());

  const Datatype pattern =
      Datatype::Vector(128, 10, 24, Datatype::Bytes(1)).value();
  Bytes per_extent(pattern.size());
  std::uint64_t cursor = 0;
  for (const ByteExtent& extent : pattern.extents()) {
    ASSERT_TRUE(fs_->ReadBytes(handle, 5 + extent.offset,
                               MutableByteSpan(per_extent)
                                   .subspan(cursor, extent.length))
                    .ok());
    cursor += extent.length;
  }
  for (const bool whole : {true, false}) {
    IoOptions io;
    io.whole_brick_reads = whole;
    Bytes typed(pattern.size());
    IoReport report;
    ASSERT_TRUE(fs_->ReadType(handle, 5, pattern, typed, io, &report).ok());
    EXPECT_EQ(typed, per_extent) << "whole_brick_reads=" << whole;
    EXPECT_LE(report.requests, 4u);
    // Whole-brick reads fetch each touched brick (bytes 5-3062 touch
    // bricks 0-47) once; sieve reads move only the type's bytes.
    EXPECT_EQ(report.transfer_bytes, whole ? 48u * 64 : pattern.size());
  }

  // Writes through the datatype and extent by extent land identically.
  const Bytes payload = PatternBytes(pattern.size(), 78);
  ASSERT_TRUE(fs_->WriteType(handle, 5, pattern, payload).ok());
  Bytes after_type(4096);
  ASSERT_TRUE(fs_->ReadBytes(handle, 0, after_type).ok());
  ASSERT_TRUE(fs_->WriteBytes(handle, 0, base).ok());
  cursor = 0;
  for (const ByteExtent& extent : pattern.extents()) {
    ASSERT_TRUE(fs_->WriteBytes(handle, 5 + extent.offset,
                                ByteSpan(payload).subspan(cursor,
                                                          extent.length))
                    .ok());
    cursor += extent.length;
  }
  Bytes after_extents(4096);
  ASSERT_TRUE(fs_->ReadBytes(handle, 0, after_extents).ok());
  EXPECT_EQ(after_type, after_extents);
}

TEST_F(FileSystemTest, ListIoRespectsRequestBatching) {
  // A tiny max_request_bytes splits one server's request for a datatype
  // access into several wire requests; bytes must still round-trip.
  CreateOptions options;
  options.total_bytes = 8192;
  options.brick_bytes = 1024;
  FileHandle handle = fs_->Create("/batched", options).value();
  ASSERT_TRUE(fs_->WriteBytes(handle, 0, Bytes(8192, 0x11)).ok());

  const Datatype pattern =
      Datatype::Vector(64, 16, 128, Datatype::Bytes(1)).value();
  IoOptions tiny;
  tiny.max_request_bytes = 64;  // 4 blocks per wire request
  const Bytes payload = PatternBytes(pattern.size(), 79);
  metrics::Counter& wire_writes =
      metrics::GetCounter("io_server.requests.write");
  const std::uint64_t writes_before = wire_writes.value();
  IoReport report;
  ASSERT_TRUE(fs_->WriteType(handle, 0, pattern, payload, tiny, &report).ok());
  // 64 blocks over 4 servers at 4 blocks per frame: 4 plan requests, and
  // more wire requests than servers proves the executor split them.
  EXPECT_EQ(report.requests, 4u);
  EXPECT_EQ(wire_writes.value() - writes_before, 16u);

  for (const bool whole : {true, false}) {
    IoOptions read = tiny;
    read.whole_brick_reads = whole;
    Bytes back(pattern.size());
    ASSERT_TRUE(fs_->ReadType(handle, 0, pattern, back, read).ok());
    EXPECT_EQ(back, payload) << "whole_brick_reads=" << whole;
  }
}

TEST_F(FileSystemTest, ListIoRejectsNonLinearFiles) {
  CreateOptions options;
  options.level = layout::FileLevel::kMultidim;
  options.array_shape = {16, 16};
  options.brick_shape = {4, 4};
  FileHandle handle = fs_->Create("/md", options).value();
  const Datatype type = Datatype::Vector(4, 2, 8, Datatype::Bytes(1)).value();
  Bytes buf(type.size());
  EXPECT_EQ(fs_->ReadType(handle, 0, type, buf).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fs_->WriteType(handle, 0, type, buf).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(FileSystemTest, DatatypeExtentBoundsChecked) {
  CreateOptions options;
  options.total_bytes = 64;
  FileHandle handle = fs_->Create("/b", options).value();
  const Datatype type = Datatype::Vector(8, 1, 8, Datatype::Bytes(1)).value();
  Bytes buf(8);
  // extent of the vector is 57 bytes; base 8 would end at 65 > 64.
  EXPECT_FALSE(fs_->ReadType(handle, 8, type, buf).ok());
  EXPECT_TRUE(fs_->ReadType(handle, 7, type, buf).ok());
}

TEST_F(FileSystemTest, AccessWhoseEndWrapsU64IsOutOfRange) {
  // offset + size wraps to 8, inside the file; each call must still see
  // that the access ends past the file.
  CreateOptions options;
  options.total_bytes = 4096;
  FileHandle handle = fs_->Create("/wrap", options).value();
  const std::uint64_t near_max = ~std::uint64_t{0} - 7;
  Bytes buf(16);
  EXPECT_EQ(fs_->ReadBytes(handle, near_max, buf).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(fs_->WriteBytes(handle, near_max, buf).code(),
            StatusCode::kOutOfRange);
  const Datatype type = Datatype::Bytes(16);
  EXPECT_EQ(fs_->ReadType(handle, near_max, type, buf).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(fs_->WriteType(handle, near_max, type, buf).code(),
            StatusCode::kOutOfRange);
  // The file is untouched and still readable in full.
  Bytes whole(4096);
  EXPECT_TRUE(fs_->ReadBytes(handle, 0, whole).ok());
}

TEST_F(FileSystemTest, RemoveDeletesSubfilesAndMetadata) {
  CreateOptions options;
  options.total_bytes = 1024;
  options.brick_bytes = 64;
  FileHandle handle = fs_->Create("/gone", options).value();
  ASSERT_TRUE(fs_->WriteBytes(handle, 0, Bytes(1024, 7)).ok());
  // Every server holds a subfile named by the file's id, not its path...
  const auto stores_subfile = [&](std::size_t s) {
    const std::vector<net::SubfileInfo> listing =
        cluster_->server(s).store().ListSubfiles().value();
    return std::any_of(listing.begin(), listing.end(),
                       [&](const net::SubfileInfo& info) {
                         return info.name == handle.meta().subfile;
                       });
  };
  for (std::size_t s = 0; s < cluster_->num_servers(); ++s) {
    EXPECT_TRUE(stores_subfile(s)) << "server " << s;
  }
  ASSERT_TRUE(fs_->Remove("/gone").ok());
  EXPECT_FALSE(fs_->Open("/gone").ok());
  // ...and the remove deletes it on each of them.
  for (std::size_t s = 0; s < cluster_->num_servers(); ++s) {
    EXPECT_FALSE(stores_subfile(s)) << "server " << s;
  }
  // Removing twice fails cleanly.
  EXPECT_FALSE(fs_->Remove("/gone").ok());
}

TEST_F(FileSystemTest, IoReportCountsRequestsAndBytes) {
  CreateOptions options;
  options.level = layout::FileLevel::kMultidim;
  options.array_shape = {16, 16};
  options.brick_shape = {4, 4};  // 16 bricks over 4 servers
  FileHandle handle = fs_->Create("/r", options).value();
  const Bytes all = PatternBytes(256, 6);

  IoReport combined_report;
  IoOptions combined;
  combined.combine = true;
  ASSERT_TRUE(fs_->WriteRegion(handle, {{0, 0}, {16, 16}}, all, combined,
                               &combined_report)
                  .ok());
  EXPECT_EQ(combined_report.requests, 4u);  // one per server
  EXPECT_EQ(combined_report.useful_bytes, 256u);

  IoReport uncombined_report;
  IoOptions uncombined;
  uncombined.combine = false;
  Bytes read(256);
  ASSERT_TRUE(fs_->ReadRegion(handle, {{0, 0}, {16, 16}}, read, uncombined,
                              &uncombined_report)
                  .ok());
  EXPECT_EQ(uncombined_report.requests, 16u);  // one per brick
  EXPECT_EQ(read, all);
}

TEST_F(FileSystemTest, CombinedAndUncombinedReadsAgree) {
  CreateOptions options;
  options.level = layout::FileLevel::kMultidim;
  options.array_shape = {24, 24};
  options.brick_shape = {6, 6};
  FileHandle handle = fs_->Create("/agree", options).value();
  const Bytes all = PatternBytes(24 * 24, 7);
  ASSERT_TRUE(fs_->WriteRegion(handle, {{0, 0}, {24, 24}}, all).ok());

  const layout::Region window{{3, 2}, {17, 19}};
  Bytes a(17 * 19);
  Bytes b(17 * 19);
  IoOptions combined;
  combined.combine = true;
  IoOptions uncombined;
  uncombined.combine = false;
  ASSERT_TRUE(fs_->ReadRegion(handle, window, a, combined).ok());
  ASSERT_TRUE(fs_->ReadRegion(handle, window, b, uncombined).ok());
  EXPECT_EQ(a, b);
}

TEST_F(FileSystemTest, SieveReadsReturnIdenticalDataWithLessTransfer) {
  // Column access through a linear-array file: the worst case for
  // whole-brick reads, the best case for sieve reads.
  CreateOptions options;
  options.level = layout::FileLevel::kLinear;
  options.array_shape = {64, 64};
  options.brick_bytes = 64;  // one row per brick
  FileHandle handle = fs_->Create("/sieve", options).value();
  const Bytes all = PatternBytes(64 * 64, 21);
  ASSERT_TRUE(fs_->WriteRegion(handle, {{0, 0}, {64, 64}}, all).ok());

  const layout::Region column{{0, 30}, {64, 2}};
  Bytes whole(128);
  Bytes sieve(128);
  IoOptions whole_options;
  whole_options.whole_brick_reads = true;
  IoOptions sieve_options;
  sieve_options.whole_brick_reads = false;
  IoReport whole_report;
  IoReport sieve_report;
  ASSERT_TRUE(
      fs_->ReadRegion(handle, column, whole, whole_options, &whole_report)
          .ok());
  ASSERT_TRUE(
      fs_->ReadRegion(handle, column, sieve, sieve_options, &sieve_report)
          .ok());
  EXPECT_EQ(whole, sieve);
  EXPECT_EQ(sieve_report.useful_bytes, whole_report.useful_bytes);
  // Whole-brick: 64 bricks x 64 bytes; sieve: exactly the 128 useful bytes.
  EXPECT_EQ(whole_report.transfer_bytes, 64u * 64u);
  EXPECT_EQ(sieve_report.transfer_bytes, 128u);
}

TEST_F(FileSystemTest, SieveReadsWorkOnMultidimAndByteAccess) {
  CreateOptions options;
  options.level = layout::FileLevel::kMultidim;
  options.array_shape = {32, 32};
  options.brick_shape = {8, 8};
  FileHandle handle = fs_->Create("/sieve2", options).value();
  const Bytes all = PatternBytes(32 * 32, 22);
  ASSERT_TRUE(fs_->WriteRegion(handle, {{0, 0}, {32, 32}}, all).ok());

  IoOptions sieve_options;
  sieve_options.whole_brick_reads = false;
  Bytes window(5 * 7);
  ASSERT_TRUE(
      fs_->ReadRegion(handle, {{3, 9}, {5, 7}}, window, sieve_options).ok());
  for (std::uint64_t r = 0; r < 5; ++r) {
    for (std::uint64_t c = 0; c < 7; ++c) {
      EXPECT_EQ(window[r * 7 + c], all[(r + 3) * 32 + (c + 9)]);
    }
  }
}

TEST_F(FileSystemTest, SuggestedIoNodesLimitsServers) {
  CreateOptions options;
  options.total_bytes = 1024;
  options.brick_bytes = 64;
  options.suggested_io_nodes = 2;
  const FileHandle handle = fs_->Create("/two", options).value();
  EXPECT_EQ(handle.record.servers.size(), 2u);
  EXPECT_EQ(handle.record.distribution.num_servers(), 2u);
}

TEST_F(FileSystemTest, ReadWithAStoppedServerFailsUnavailable) {
  CreateOptions options;
  options.total_bytes = 4096;
  options.brick_bytes = 256;
  FileHandle handle = fs_->Create("/stopped", options).value();
  ASSERT_TRUE(fs_->WriteBytes(handle, 0, Bytes(4096, 1)).ok());
  cluster_->server(2).Stop();
  fs_->connections().Clear();
  Bytes read(4096);
  EXPECT_EQ(fs_->ReadBytes(handle, 0, read).code(), StatusCode::kUnavailable);
}

TEST_F(FileSystemTest, SyncedWritesFsyncOncePerWireWrite) {
  CreateOptions options;
  options.total_bytes = 4096;
  options.brick_bytes = 256;
  FileHandle handle = fs_->Create("/synced", options).value();
  const metrics::Counter& fsyncs = metrics::GetCounter("subfile_store.fsyncs");
  const metrics::Counter& wire_writes =
      metrics::GetCounter("io_server.requests.write");

  std::uint64_t fsyncs_before = fsyncs.value();
  ASSERT_TRUE(fs_->WriteBytes(handle, 0, PatternBytes(4096, 3)).ok());
  EXPECT_EQ(fsyncs.value(), fsyncs_before);

  IoOptions synced;
  synced.sync = true;
  const Bytes data = PatternBytes(4096, 4);
  fsyncs_before = fsyncs.value();
  const std::uint64_t writes_before = wire_writes.value();
  ASSERT_TRUE(fs_->WriteBytes(handle, 0, data, synced).ok());
  const std::uint64_t sent = wire_writes.value() - writes_before;
  EXPECT_EQ(sent, 4u);  // one combined request per server
  EXPECT_EQ(fsyncs.value() - fsyncs_before, sent);
  Bytes read(4096);
  ASSERT_TRUE(fs_->ReadBytes(handle, 0, read).ok());
  EXPECT_EQ(read, data);
}

TEST_F(FileSystemTest, CloseResetsHandle) {
  CreateOptions options;
  options.total_bytes = 128;
  FileHandle handle = fs_->Create("/closable", options).value();
  ASSERT_TRUE(fs_->WriteBytes(handle, 0, Bytes(128, 5)).ok());
  FileSystem::Close(handle);
  EXPECT_EQ(handle.map.num_bricks(), 0u);
  EXPECT_TRUE(handle.meta().path.empty());
  // The file itself is unaffected: reopening works.
  FileHandle reopened = fs_->Open("/closable").value();
  Bytes read(128);
  ASSERT_TRUE(fs_->ReadBytes(reopened, 0, read).ok());
  EXPECT_EQ(read, Bytes(128, 5));
}

TEST_F(FileSystemTest, RequestBatchingSplitsLargeTransfers) {
  CreateOptions options;
  options.total_bytes = 8192;
  options.brick_bytes = 512;  // 16 bricks over 4 servers
  FileHandle handle = fs_->Create("/batched", options).value();
  const Bytes data = PatternBytes(8192, 66);

  IoOptions tiny;
  tiny.max_request_bytes = 1024;  // forces ~2 bricks per wire request
  ASSERT_TRUE(fs_->WriteBytes(handle, 0, data, tiny).ok());

  const std::uint64_t requests_before = IoServerRequests();
  Bytes read(8192);
  ASSERT_TRUE(fs_->ReadBytes(handle, 0, read, tiny).ok());
  EXPECT_EQ(read, data);
  // 4 combined plan-requests (one per server), but each split into two wire
  // requests by the 1 KB cap: 8 wire requests total, over all 4 servers.
  EXPECT_EQ(IoServerRequests() - requests_before, 8u);

  // Sieve reads batch too, and still reconstruct correctly.
  IoOptions tiny_sieve = tiny;
  tiny_sieve.whole_brick_reads = false;
  Bytes sieve_read(8192);
  ASSERT_TRUE(fs_->ReadBytes(handle, 0, sieve_read, tiny_sieve).ok());
  EXPECT_EQ(sieve_read, data);
}

TEST_F(FileSystemTest, RenameMovesMetadataNotBytes) {
  CreateOptions options;
  options.total_bytes = 2048;
  options.brick_bytes = 256;
  FileHandle handle = fs_->Create("/old.bin", options).value();
  const Bytes data = PatternBytes(2048, 55);
  ASSERT_TRUE(fs_->WriteBytes(handle, 0, data).ok());
  const metrics::Counter& bytes_written =
      metrics::GetCounter("subfile_store.bytes_written");
  const std::uint64_t writes_before = bytes_written.value();

  ASSERT_TRUE(fs_->metadata().MakeDirectory("/archive").ok());
  ASSERT_TRUE(fs_->Rename("/old.bin", "/archive/new.bin").ok());

  // No payload bytes moved during the rename, on any of the servers.
  EXPECT_EQ(bytes_written.value(), writes_before);
  EXPECT_FALSE(fs_->Open("/old.bin").ok());
  FileHandle renamed = fs_->Open("/archive/new.bin").value();
  Bytes restored(2048);
  ASSERT_TRUE(fs_->ReadBytes(renamed, 0, restored).ok());
  EXPECT_EQ(restored, data);
  // Directory links updated on both sides.
  EXPECT_TRUE(fs_->metadata().ListDirectory("/").value().files.empty());
  EXPECT_EQ(fs_->metadata().ListDirectory("/archive").value().files.size(),
            1u);
}

TEST_F(FileSystemTest, RenameAndRemoveRunPinnedStatementCounts) {
  // The SQL statements one rename and one remove run on the embedded
  // database, pinned exactly so a statement added to either path shows up
  // here. Each is one transaction, whose begin and commit are not
  // statements. Rename is RenameFile alone: four checks (the source
  // file, a file or a directory at the target, the target's parent), the
  // row updates in the file's two tables, the unlink and link (a SELECT
  // and an UPDATE each) = 10. Remove is DeleteFile: the record read
  // (attribute, distribution and one read of the server table), the
  // deletes in the two tables, the unlink's SELECT and UPDATE = 7.
  CreateOptions options;
  options.total_bytes = 2048;
  options.brick_bytes = 256;
  FileHandle handle = fs_->Create("/counted.bin", options).value();
  ASSERT_TRUE(fs_->WriteBytes(handle, 0, PatternBytes(2048, 9)).ok());
  const metrics::Counter& statements =
      metrics::GetCounter("metadb.statements");

  std::uint64_t before = statements.value();
  ASSERT_TRUE(fs_->Rename("/counted.bin", "/renamed.bin").ok());
  EXPECT_EQ(statements.value() - before, 10u);

  before = statements.value();
  ASSERT_TRUE(fs_->Remove("/renamed.bin").ok());
  EXPECT_EQ(statements.value() - before, 7u);
}

TEST_F(FileSystemTest, MissingSubfileReadsAreCounted) {
  // A read of a subfile that does not exist is served as zeroes and
  // counted; a read of a written file is not.
  CreateOptions options;
  options.total_bytes = 4096;
  options.brick_bytes = 256;
  FileHandle never = fs_->Create("/never.bin", options).value();
  FileHandle written = fs_->Create("/written.bin", options).value();
  ASSERT_TRUE(fs_->WriteBytes(written, 0, PatternBytes(4096, 12)).ok());
  const metrics::Counter& missing =
      metrics::GetCounter("subfile_store.missing_reads");

  std::uint64_t before = missing.value();
  IoReport report;
  Bytes read(4096);
  ASSERT_TRUE(fs_->ReadBytes(never, 0, read, {}, &report).ok());
  EXPECT_EQ(read, Bytes(4096, 0));
  EXPECT_EQ(missing.value() - before, report.requests);
  EXPECT_EQ(report.requests, 4u);

  before = missing.value();
  ASSERT_TRUE(fs_->ReadBytes(written, 0, read).ok());
  EXPECT_EQ(missing.value(), before);
}

TEST_F(FileSystemTest, RenamePreconditionsChecked) {
  CreateOptions options;
  options.total_bytes = 64;
  ASSERT_TRUE(fs_->Create("/a", options).ok());
  ASSERT_TRUE(fs_->Create("/b", options).ok());
  EXPECT_FALSE(fs_->Rename("/missing", "/x").ok());
  EXPECT_EQ(fs_->Rename("/a", "/b").code(), StatusCode::kAlreadyExists);
  EXPECT_FALSE(fs_->Rename("/a", "/no/dir/x").ok());
  // Failed renames leave the source intact and readable.
  FileHandle a = fs_->Open("/a").value();
  Bytes read(64);
  EXPECT_TRUE(fs_->ReadBytes(a, 0, read).ok());
}

TEST_F(FileSystemTest, RenameOfNeverWrittenFileWorks) {
  // No subfiles exist yet; the rename is metadata-only.
  CreateOptions options;
  options.total_bytes = 64;
  ASSERT_TRUE(fs_->Create("/empty", options).ok());
  ASSERT_TRUE(fs_->Rename("/empty", "/still-empty").ok());
  FileHandle handle = fs_->Open("/still-empty").value();
  Bytes read(64);
  ASSERT_TRUE(fs_->ReadBytes(handle, 0, read).ok());
  EXPECT_EQ(read, Bytes(64, 0));  // unwritten bytes are zero
}

TEST_F(FileSystemTest, OwnMetadataWritesReachOpen) {
  // Open reads the metadata database every time, so attribute changes and
  // deletes made through this client's own metadata() show up at once.
  CreateOptions options;
  options.total_bytes = 512;
  ASSERT_TRUE(fs_->Create("/own.bin", options).ok());
  ASSERT_TRUE(fs_->Open("/own.bin").ok());

  ASSERT_TRUE(fs_->metadata().SetPermission("/own.bin", 0600).ok());
  ASSERT_TRUE(fs_->metadata().SetOwner("/own.bin", "alice").ok());
  const FileHandle handle = fs_->Open("/own.bin").value();
  EXPECT_EQ(handle.meta().permission, 0600u);
  EXPECT_EQ(handle.meta().owner, "alice");

  ASSERT_TRUE(fs_->metadata().DeleteFile("/own.bin").ok());
  const Result<FileHandle> reopened = fs_->Open("/own.bin");
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kNotFound);
}

TEST_F(FileSystemTest, RemoveInvalidatesMetadataCache) {
  CreateOptions options;
  options.total_bytes = 512;
  FileHandle handle = fs_->Create("/gone2.bin", options).value();
  ASSERT_TRUE(fs_->WriteBytes(handle, 0, Bytes(512, 1)).ok());
  ASSERT_TRUE(fs_->Remove("/gone2.bin").ok());
  EXPECT_FALSE(fs_->Open("/gone2.bin").ok());
}

TEST_F(FileSystemTest, CapacityAwarePlacementHonorsAdvertisedSpace) {
  // A fresh cluster whose servers advertise room for only 8 bricks each.
  core::ClusterOptions cluster_options;
  cluster_options.num_servers = 2;
  cluster_options.capacity_bytes = 8 * 1024;
  auto small_cluster =
      core::LocalCluster::Start(std::move(cluster_options)).value();
  auto fs = small_cluster->fs();

  CreateOptions options;
  options.brick_bytes = 1024;
  options.placement = layout::PlacementPolicy::kCapacityAware;

  // 16 bricks fit exactly (8 + 8).
  options.total_bytes = 16 * 1024;
  ASSERT_TRUE(fs->Create("/fits", options).ok());
  // 17 bricks do not.
  options.total_bytes = 17 * 1024;
  const Result<FileHandle> too_big = fs->Create("/overflow", options);
  EXPECT_FALSE(too_big.ok());
  EXPECT_EQ(too_big.status().code(), StatusCode::kResourceExhausted);
  // The failed create leaves no metadata behind.
  EXPECT_FALSE(fs->metadata().FileExists("/overflow").value());
}

TEST_F(FileSystemTest, GreedyPlacementViaHints) {
  // Register heterogeneity by recreating the cluster with perf numbers is
  // heavy; instead verify the hint plumbs through on this homogeneous
  // cluster (greedy with equal perf ≡ balanced).
  CreateOptions options;
  options.total_bytes = 64 * 64;
  options.brick_bytes = 64;
  options.placement = layout::PlacementPolicy::kGreedy;
  const FileHandle handle = fs_->Create("/greedy", options).value();
  for (layout::ServerId s = 0; s < 4; ++s) {
    EXPECT_EQ(handle.record.distribution.bricks_on(s).size(), 16u);
  }
}

}  // namespace
}  // namespace dpfs::client

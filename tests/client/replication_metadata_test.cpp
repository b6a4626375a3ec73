// Replica ranks in DPFS-FILE-DISTRIBUTION (docs/METADATA_SCHEMA.md): rows
// carry a `replica` column, CreateFile places every rank and LookupFile
// reads them back, and a pre-replication 4-column table is migrated in
// place on Attach with every existing row becoming rank 0.
#include <gtest/gtest.h>

#include "client/metadata.h"
#include "layout/replication.h"

namespace dpfs::client {
namespace {

class ReplicationMetadataTest : public ::testing::Test {
 protected:
  ReplicationMetadataTest()
      : db_(metadb::Database::OpenInMemory()) {
    manager_ = MetadataManager::Attach(db_).value();
    for (int s = 0; s < 3; ++s) {
      ServerInfo server;
      server.name = "s" + std::to_string(s);
      server.endpoint = {"127.0.0.1", static_cast<std::uint16_t>(9000 + s)};
      server.capacity_bytes = 1 << 30;
      server.performance = 1;
      EXPECT_TRUE(manager_->RegisterServer(server).ok());
    }
  }

  FileMeta MakeMeta(const std::string& path) {
    FileMeta meta;
    meta.path = path;
    meta.owner = "xhshen";
    meta.permission = 0644;
    meta.level = layout::FileLevel::kLinear;
    meta.size_bytes = 6 * 64;
    meta.brick_bytes = 64;
    return meta;
  }

  static PlacementHints Replicated(layout::PlacementPolicy policy,
                                   std::uint32_t factor) {
    PlacementHints hints;
    hints.policy = policy;
    hints.replication.factor = factor;
    return hints;
  }

  std::shared_ptr<metadb::Database> db_;
  std::unique_ptr<MetadataManager> manager_;
};

TEST_F(ReplicationMetadataTest, ReplicaRanksRoundTripThroughLookup) {
  layout::ReplicationSpec spec;
  spec.factor = 2;
  const layout::ReplicatedDistribution dist =
      layout::ReplicatedDistribution::Create(layout::PlacementPolicy::kGreedy,
                                             6, {1, 1, 1}, spec)
          .value();
  ASSERT_TRUE(
      manager_
          ->CreateFile(MakeMeta("/r2"),
                       Replicated(layout::PlacementPolicy::kGreedy, 2))
          .ok());
  const FileRecord record = manager_->LookupFile("/r2").value();
  EXPECT_EQ(record.replication(), 2u);
  ASSERT_EQ(record.replicas.size(), 1u);
  for (layout::BrickId b = 0; b < 6; ++b) {
    EXPECT_EQ(record.distribution.server_for(b),
              dist.primary().server_for(b));
    EXPECT_EQ(record.replicas[0].server_for(b), dist.rank(1).server_for(b));
    EXPECT_EQ(record.rank_distribution(1).slot_for(b),
              dist.rank(1).slot_for(b));
  }
}

TEST_F(ReplicationMetadataTest, UnreplicatedFilesHaveNoReplicaRows) {
  ASSERT_TRUE(manager_->CreateFile(MakeMeta("/r1"), {}).ok());
  const FileRecord record = manager_->LookupFile("/r1").value();
  EXPECT_EQ(record.replication(), 1u);
  EXPECT_TRUE(record.replicas.empty());
  const auto rows =
      manager_->db()
          .Execute("SELECT replica FROM DPFS_FILE_DISTRIBUTION")
          .value();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows.GetInt(i, "replica").value(), 0);
  }
}

TEST_F(ReplicationMetadataTest, DeleteAndRenameCoverReplicaRows) {
  layout::ReplicationSpec spec;
  spec.factor = 3;
  const layout::ReplicatedDistribution dist =
      layout::ReplicatedDistribution::Create(
          layout::PlacementPolicy::kRoundRobin, 6, {1, 1, 1}, spec)
          .value();
  ASSERT_TRUE(
      manager_
          ->CreateFile(MakeMeta("/f"),
                       Replicated(layout::PlacementPolicy::kRoundRobin, 3))
          .ok());
  ASSERT_TRUE(manager_->RenameFile("/f", "/g").ok());
  const FileRecord renamed = manager_->LookupFile("/g").value();
  EXPECT_EQ(renamed.replication(), 3u);
  for (layout::BrickId b = 0; b < 6; ++b) {
    EXPECT_EQ(renamed.rank_distribution(2).server_for(b),
              dist.rank(2).server_for(b));
  }
  ASSERT_TRUE(manager_->DeleteFile("/g").ok());
  const auto rows =
      manager_->db().Execute("SELECT * FROM DPFS_FILE_DISTRIBUTION").value();
  EXPECT_TRUE(rows.empty());
}

TEST_F(ReplicationMetadataTest, FourColumnTableIsMigratedOnAttach) {
  // Simulate a database written before the replica column existed: rebuild
  // DPFS_FILE_DISTRIBUTION with the old 4-column shape, keeping the rows.
  const auto dist = layout::BrickDistribution::RoundRobin(6, 3).value();
  ASSERT_TRUE(manager_->CreateFile(MakeMeta("/old"), {}).ok());
  const auto saved =
      db_->Execute("SELECT filename, server, server_index, bricklist "
                   "FROM DPFS_FILE_DISTRIBUTION")
          .value();
  ASSERT_EQ(saved.size(), 3u);
  ASSERT_TRUE(db_->Execute("DROP TABLE DPFS_FILE_DISTRIBUTION").ok());
  ASSERT_TRUE(db_->Execute("CREATE TABLE DPFS_FILE_DISTRIBUTION ("
                           "  filename TEXT, server TEXT, server_index INT,"
                           "  bricklist TEXT)")
                  .ok());
  for (std::size_t i = 0; i < saved.size(); ++i) {
    ASSERT_TRUE(
        db_->Execute("INSERT INTO DPFS_FILE_DISTRIBUTION VALUES ('" +
                     saved.GetText(i, "filename").value() + "', '" +
                     saved.GetText(i, "server").value() + "', " +
                     std::to_string(saved.GetInt(i, "server_index").value()) +
                     ", '" + saved.GetText(i, "bricklist").value() + "')")
            .ok());
  }

  // Re-attach: EnsureTables must widen the table in place.
  manager_ = MetadataManager::Attach(db_).value();
  const auto widened =
      db_->Execute("SELECT replica FROM DPFS_FILE_DISTRIBUTION").value();
  ASSERT_EQ(widened.size(), 3u);
  for (std::size_t i = 0; i < widened.size(); ++i) {
    EXPECT_EQ(widened.GetInt(i, "replica").value(), 0);
  }
  const FileRecord record = manager_->LookupFile("/old").value();
  EXPECT_EQ(record.replication(), 1u);
  for (layout::BrickId b = 0; b < 6; ++b) {
    EXPECT_EQ(record.distribution.server_for(b), dist.server_for(b));
  }
}

}  // namespace
}  // namespace dpfs::client

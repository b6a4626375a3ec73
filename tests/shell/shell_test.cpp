#include "shell/shell.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "common/temp_dir.h"
#include "core/cluster.h"

namespace dpfs::shell {
namespace {

class ShellTest : public ::testing::Test {
 protected:
  ShellTest() {
    core::ClusterOptions options;
    options.num_servers = 2;
    cluster_ = core::LocalCluster::Start(std::move(options)).value();
    shell_ = std::make_unique<Shell>(cluster_->fs());
  }

  /// Runs a command, expecting success; returns its output.
  std::string Run(const std::string& line) {
    std::ostringstream out;
    const Status status = shell_->Execute(line, out);
    EXPECT_TRUE(status.ok()) << line << ": " << status.ToString();
    return out.str();
  }

  Status RunStatus(const std::string& line) {
    std::ostringstream out;
    return shell_->Execute(line, out);
  }

  std::unique_ptr<core::LocalCluster> cluster_;
  std::unique_ptr<Shell> shell_;
};

TEST_F(ShellTest, PwdStartsAtRoot) { EXPECT_EQ(Run("pwd"), "/\n"); }

TEST_F(ShellTest, EmptyLineIsOk) { EXPECT_EQ(Run(""), ""); }

TEST_F(ShellTest, UnknownCommandFails) {
  EXPECT_FALSE(RunStatus("frobnicate").ok());
}

TEST_F(ShellTest, HelpListsCommands) {
  const std::string out = Run("help");
  EXPECT_NE(out.find("mkdir"), std::string::npos);
  EXPECT_NE(out.find("import"), std::string::npos);
  EXPECT_NE(out.find("metrics"), std::string::npos);
}

TEST_F(ShellTest, MkdirCdPwd) {
  Run("mkdir /home");
  Run("mkdir /home/user");
  Run("cd /home/user");
  EXPECT_EQ(Run("pwd"), "/home/user\n");
  Run("cd ..");
  EXPECT_EQ(Run("pwd"), "/home\n");
  EXPECT_FALSE(RunStatus("cd /nonexistent").ok());
}

TEST_F(ShellTest, RelativeMkdirAndLs) {
  Run("mkdir proj");
  Run("cd proj");
  Run("mkdir data");
  const std::string listing = Run("ls");
  EXPECT_EQ(listing, "data/\n");
  const std::string root_listing = Run("ls /");
  EXPECT_EQ(root_listing, "proj/\n");
}

TEST_F(ShellTest, RmdirRequiresEmptyUnlessRecursive) {
  Run("mkdir /a");
  Run("mkdir /a/b");
  EXPECT_FALSE(RunStatus("rmdir /a").ok());
  Run("rmdir -r /a");
  EXPECT_FALSE(RunStatus("cd /a").ok());
}

TEST_F(ShellTest, ImportExportRoundTrip) {
  const TempDir local = TempDir::Create("dpfs-shell").value();
  const std::string src = (local.path() / "input.bin").string();
  const std::string dst = (local.path() / "output.bin").string();
  std::string payload;
  for (int i = 0; i < 10000; ++i) payload += static_cast<char>(i * 7);
  std::ofstream(src, std::ios::binary) << payload;

  Run("import " + src + " /data.bin");
  const std::string listing = Run("ls /");
  EXPECT_NE(listing.find("data.bin"), std::string::npos);

  Run("export /data.bin " + dst);
  std::ifstream restored(dst, std::ios::binary);
  std::stringstream buffer;
  buffer << restored.rdbuf();
  EXPECT_EQ(buffer.str(), payload);
}

TEST_F(ShellTest, CatPrintsContents) {
  const TempDir local = TempDir::Create("dpfs-shell").value();
  const std::string src = (local.path() / "note.txt").string();
  std::ofstream(src) << "hello dpfs";
  Run("import " + src + " /note.txt");
  EXPECT_EQ(Run("cat /note.txt"), "hello dpfs");
}

TEST_F(ShellTest, StatShowsFileLevelAndServers) {
  const TempDir local = TempDir::Create("dpfs-shell").value();
  const std::string src = (local.path() / "f").string();
  std::ofstream(src) << std::string(1000, 'x');
  Run("import " + src + " /f");
  const std::string out = Run("stat /f");
  EXPECT_NE(out.find("linear"), std::string::npos);
  EXPECT_NE(out.find("1000"), std::string::npos);
  EXPECT_NE(out.find("servers:    2"), std::string::npos);
}

TEST_F(ShellTest, CpCopiesWithinDpfs) {
  const TempDir local = TempDir::Create("dpfs-shell").value();
  const std::string src = (local.path() / "f").string();
  std::string payload(5000, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i % 251);
  }
  std::ofstream(src, std::ios::binary) << payload;
  Run("import " + src + " /orig");
  Run("cp /orig /copy");

  const std::string dst = (local.path() / "out").string();
  Run("export /copy " + dst);
  std::ifstream restored(dst, std::ios::binary);
  std::stringstream buffer;
  buffer << restored.rdbuf();
  EXPECT_EQ(buffer.str(), payload);
}

TEST_F(ShellTest, CpCopiesAttributesSetEarlierInTheSession) {
  // cp copies owner and mode from the source's record, so it must see the
  // chmod/chown this same session just made.
  const TempDir local = TempDir::Create("dpfs-shell").value();
  const std::string src = (local.path() / "f").string();
  std::ofstream(src) << "x";
  Run("import " + src + " /f");
  Run("chmod 600 /f");
  Run("chown xhshen /f");
  Run("cp /f /g");
  const std::string out = Run("stat /g");
  EXPECT_NE(out.find("owner:      xhshen"), std::string::npos) << out;
  EXPECT_NE(out.find("permission: 600"), std::string::npos) << out;
}

TEST_F(ShellTest, RmRemovesFile) {
  const TempDir local = TempDir::Create("dpfs-shell").value();
  const std::string src = (local.path() / "f").string();
  std::ofstream(src) << "x";
  Run("import " + src + " /f");
  Run("rm /f");
  EXPECT_FALSE(RunStatus("stat /f").ok());
  EXPECT_FALSE(RunStatus("rm /f").ok());
}

TEST_F(ShellTest, LsLongFormatShowsAttributes) {
  const TempDir local = TempDir::Create("dpfs-shell").value();
  const std::string src = (local.path() / "f").string();
  std::ofstream(src) << std::string(2048, 'y');
  Run("import " + src + " /f");
  const std::string out = Run("ls -l /");
  EXPECT_NE(out.find("f  "), std::string::npos);
  EXPECT_NE(out.find("2.0 KB"), std::string::npos);
  EXPECT_NE(out.find("linear"), std::string::npos);
}

TEST_F(ShellTest, DfAndServersListRegisteredNodes) {
  const TempDir local = TempDir::Create("dpfs-shell").value();
  const std::string src = (local.path() / "f").string();
  std::ofstream(src) << std::string(2048, 'z');
  Run("import " + src + " /f");
  const std::string df = Run("df");
  EXPECT_NE(df.find("ionode000.dpfs.local"), std::string::npos);
  EXPECT_NE(df.find("ionode001.dpfs.local"), std::string::npos);
  // `used` sums the subfiles each server lists: the one brick of the
  // 2048-byte file lives on one of the two servers, none on the other.
  EXPECT_NE(df.find("  2.0 KB\n"), std::string::npos) << df;
  EXPECT_NE(df.find("  0 B\n"), std::string::npos) << df;
  const std::string servers = Run("servers");
  EXPECT_NE(servers.find("127.0.0.1:"), std::string::npos);
}

TEST_F(ShellTest, MetricsPrintsEveryServer) {
  // In-process servers share one registry, so each prints the same
  // snapshot; the header names the server the text came from.
  const auto header = [&](std::size_t s) {
    return "== ionode00" + std::to_string(s) + ".dpfs.local " +
           cluster_->server(s).endpoint().ToString() + "\n";
  };
  // The lines under server s's header, up to the next header.
  const auto section = [&](const std::string& out, std::size_t s) {
    const std::size_t at = out.find(header(s));
    if (at == std::string::npos) return std::string("<no header>");
    EXPECT_EQ(out.find(header(s), at + 1), std::string::npos) << out;
    const std::size_t body = at + header(s).size();
    return out.substr(body, out.find("== ", body) - body);
  };
  const std::string metrics = Run("metrics");
  for (std::size_t s = 0; s < cluster_->num_servers(); ++s) {
    EXPECT_NE(section(metrics, s).find("counter io_server.requests.metrics "),
              std::string::npos)
        << metrics;
  }

  // A stopped server is reported, and the command still succeeds.
  cluster_->server(1).Stop();
  const std::string partial = Run("metrics");
  EXPECT_EQ(section(partial, 1), "<unreachable>\n") << partial;
  EXPECT_NE(section(partial, 0).find("counter io_server.requests.metrics "),
            std::string::npos)
      << partial;
}

TEST(ShellMetadTest, MetricsPrintsTheMetadFirst) {
  core::ClusterOptions options;
  options.num_servers = 2;
  options.start_metadata_service = true;
  const auto cluster = core::LocalCluster::Start(std::move(options)).value();
  Shell shell(cluster->fs());
  std::ostringstream out;
  ASSERT_TRUE(shell.Execute("metrics", out).ok());
  const std::string metrics = out.str();
  const std::string header =
      "== metad " + cluster->metad()->endpoint().ToString() + "\n";
  EXPECT_EQ(metrics.rfind(header, 0), 0u) << metrics;
  EXPECT_NE(metrics.find("counter metad.requests.meta_list_servers "),
            std::string::npos);
  EXPECT_NE(metrics.find("== ionode000.dpfs.local "), std::string::npos);
  EXPECT_NE(metrics.find("== ionode001.dpfs.local "), std::string::npos);
}

TEST_F(ShellTest, MvRenamesFile) {
  const TempDir local = TempDir::Create("dpfs-shell").value();
  const std::string src = (local.path() / "f").string();
  std::ofstream(src) << "move me";
  Run("import " + src + " /old-name");
  Run("mv /old-name /new-name");
  EXPECT_FALSE(RunStatus("stat /old-name").ok());
  EXPECT_EQ(Run("cat /new-name"), "move me");
}

TEST_F(ShellTest, DuSumsSubtree) {
  const TempDir local = TempDir::Create("dpfs-shell").value();
  const std::string src = (local.path() / "f").string();
  std::ofstream(src) << std::string(1000, 'x');
  Run("mkdir /proj");
  Run("mkdir /proj/sub");
  Run("import " + src + " /proj/a");
  Run("import " + src + " /proj/sub/b");
  const std::string out = Run("du /proj");
  EXPECT_NE(out.find("2.0 KB"), std::string::npos) << out;
  const std::string sub = Run("du /proj/sub");
  EXPECT_NE(sub.find("1000 B"), std::string::npos) << sub;
}

TEST_F(ShellTest, SqlCommandQueriesMetadata) {
  const TempDir local = TempDir::Create("dpfs-shell").value();
  const std::string src = (local.path() / "f").string();
  std::ofstream(src) << "x";
  Run("import " + src + " /solo.bin");
  const std::string out =
      Run("sql SELECT filename, size FROM DPFS_FILE_ATTR");
  EXPECT_NE(out.find("/solo.bin"), std::string::npos);
  const std::string count = Run("sql SELECT COUNT(*) FROM DPFS_SERVER");
  EXPECT_NE(count.find("2"), std::string::npos);  // two cluster servers
  EXPECT_FALSE(RunStatus("sql DELETE FROM missing_table").ok());
  EXPECT_FALSE(RunStatus("sql").ok());
  // Each `sql` is one statement; a transaction is not a statement.
  EXPECT_FALSE(RunStatus("sql BEGIN").ok());
  EXPECT_FALSE(RunStatus("sql COMMIT").ok());
}

TEST_F(ShellTest, FsckDetectsPlantedOrphan) {
  const TempDir local = TempDir::Create("dpfs-shell").value();
  const std::string src = (local.path() / "f").string();
  std::ofstream(src) << "real file";
  Run("import " + src + " /real");
  EXPECT_NE(Run("fsck").find("clean"), std::string::npos);

  // Plant an orphan behind DPFS's back.
  std::vector<net::WriteFragment> writes;
  const Bytes bytes(10, 1);
  writes.emplace_back(0, bytes);
  Bytes scratch;
  ASSERT_TRUE(cluster_->server(0)
                  .store()
                  .WriteFragments("/orphan", writes, false, scratch)
                  .ok());
  const std::string found = Run("fsck");
  EXPECT_NE(found.find("orphan subfile /orphan"), std::string::npos) << found;
  EXPECT_NE(found.find("issues found"), std::string::npos);

  const std::string repaired = Run("fsck -repair");
  EXPECT_NE(repaired.find("repaired"), std::string::npos);
  EXPECT_NE(Run("fsck").find("clean"), std::string::npos);
  EXPECT_EQ(Run("cat /real"), "real file");  // the real file is untouched
}

TEST_F(ShellTest, ChmodChownUpdateAttributes) {
  const TempDir local = TempDir::Create("dpfs-shell").value();
  const std::string src = (local.path() / "f").string();
  std::ofstream(src) << "x";
  Run("import " + src + " /f");
  Run("chmod 600 /f");
  Run("chown xhshen /f");
  const std::string out = Run("stat /f");
  EXPECT_NE(out.find("owner:      xhshen"), std::string::npos) << out;
  EXPECT_NE(out.find("permission: 600"), std::string::npos) << out;
  EXPECT_FALSE(RunStatus("chmod 999 /f").ok());   // not octal
  EXPECT_FALSE(RunStatus("chmod abc /f").ok());
  EXPECT_FALSE(RunStatus("chmod 600 /missing").ok());
  EXPECT_FALSE(RunStatus("chown nobody /missing").ok());
}

TEST_F(ShellTest, UsageErrorsForMissingArgs) {
  EXPECT_FALSE(RunStatus("mkdir").ok());
  EXPECT_FALSE(RunStatus("cp /only-one").ok());
  EXPECT_FALSE(RunStatus("import just-one").ok());
}

}  // namespace
}  // namespace dpfs::shell

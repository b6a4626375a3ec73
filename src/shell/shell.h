// The DPFS user interface (§7): UNIX-style commands over a live file system.
//
// Commands: pwd, cd, ls [-l] [path], mkdir <path>, rmdir [-r] <path>,
// rm <path>, mv <src> <dst>, stat <path>, du [path], df, metrics, servers,
// cp <src> <dst>, import <local> <dpfs>, export <dpfs> <local>, cat <path>,
// sql <statement>, help. Relative paths resolve against the shell's working
// directory. `import`/`export` move data between the sequential local file
// system and DPFS, the convenience the paper calls out for post-processing
// workflows; `sql` exposes the metadata database directly (§5's "standard
// SQL" access path). `metrics` prints each live daemon's metrics snapshot:
// the metad's (remote metadata only), then every registered server's under
// a `== <name> <host:port>` header, with `<unreachable>` for a server that
// does not answer.
#pragma once

#include <memory>
#include <ostream>
#include <string>

#include "client/file_system.h"

namespace dpfs::shell {

class Shell {
 public:
  explicit Shell(std::shared_ptr<client::FileSystem> fs)
      : fs_(std::move(fs)) {}

  /// Parses and runs one command line, writing human output to `out`.
  /// Returns the command's status; unknown commands are kInvalidArgument.
  Status Execute(std::string_view line, std::ostream& out);

  [[nodiscard]] const std::string& cwd() const noexcept { return cwd_; }

 private:
  /// Resolves `path` against cwd and normalizes.
  Result<std::string> Resolve(std::string_view path) const;

  Status CmdLs(const std::vector<std::string>& args, std::ostream& out);
  Status CmdCd(const std::vector<std::string>& args);
  Status CmdMkdir(const std::vector<std::string>& args);
  Status CmdRmdir(const std::vector<std::string>& args);
  Status CmdRm(const std::vector<std::string>& args);
  Status CmdStat(const std::vector<std::string>& args, std::ostream& out);
  Status CmdDf(std::ostream& out);
  Status CmdMetrics(std::ostream& out);
  Status CmdServers(std::ostream& out);
  Status CmdCp(const std::vector<std::string>& args, std::ostream& out);
  Status CmdImport(const std::vector<std::string>& args, std::ostream& out);
  Status CmdExport(const std::vector<std::string>& args, std::ostream& out);
  Status CmdCat(const std::vector<std::string>& args, std::ostream& out);
  Status CmdMv(const std::vector<std::string>& args, std::ostream& out);
  Status CmdDu(const std::vector<std::string>& args, std::ostream& out);
  Status CmdSql(std::string_view line, std::ostream& out);
  Status CmdChmod(const std::vector<std::string>& args);
  Status CmdChown(const std::vector<std::string>& args);

  /// Sums the sizes of every file under `path`, recursively.
  Result<std::uint64_t> TreeBytes(const std::string& path);

  std::shared_ptr<client::FileSystem> fs_;
  std::string cwd_ = "/";
};

}  // namespace dpfs::shell

#include "shell/shell.h"

#include <fstream>

#include "common/strings.h"

namespace dpfs::shell {

namespace {

constexpr std::uint64_t kCopyChunkBytes = 4 * 1024 * 1024;

Status NeedArgs(const std::vector<std::string>& args, std::size_t n,
                const std::string& usage) {
  if (args.size() < n) return InvalidArgumentError("usage: " + usage);
  return Status::Ok();
}

}  // namespace

Result<std::string> Shell::Resolve(std::string_view path) const {
  if (path.empty()) return cwd_;
  if (path.front() == '/') return NormalizePath(path);
  return NormalizePath(cwd_ + "/" + std::string(path));
}

Status Shell::Execute(std::string_view line, std::ostream& out) {
  const std::vector<std::string> tokens = SplitWhitespace(line);
  if (tokens.empty()) return Status::Ok();
  const std::string& cmd = tokens[0];
  const std::vector<std::string> args(tokens.begin() + 1, tokens.end());

  if (cmd == "sql") {
    // The rest of the line verbatim (it may contain quoted strings).
    const std::size_t pos = line.find("sql");
    return CmdSql(TrimWhitespace(line.substr(pos + 3)), out);
  }

  if (cmd == "pwd") {
    out << cwd_ << "\n";
    return Status::Ok();
  }
  if (cmd == "cd") return CmdCd(args);
  if (cmd == "ls") return CmdLs(args, out);
  if (cmd == "mkdir") return CmdMkdir(args);
  if (cmd == "rmdir") return CmdRmdir(args);
  if (cmd == "rm") return CmdRm(args);
  if (cmd == "stat") return CmdStat(args, out);
  if (cmd == "df") return CmdDf(out);
  if (cmd == "servers") return CmdServers(out);
  if (cmd == "cp") return CmdCp(args, out);
  if (cmd == "import") return CmdImport(args, out);
  if (cmd == "export") return CmdExport(args, out);
  if (cmd == "cat") return CmdCat(args, out);
  if (cmd == "mv") return CmdMv(args, out);
  if (cmd == "du") return CmdDu(args, out);
  if (cmd == "chmod") return CmdChmod(args);
  if (cmd == "chown") return CmdChown(args);
  if (cmd == "fsck") {
    const bool repair = !args.empty() && args[0] == "-repair";
    DPFS_ASSIGN_OR_RETURN(const client::FileSystem::FsckReport report,
                          fs_->Fsck(repair));
    out << "fsck: " << report.files_checked << " files, "
        << report.servers_checked << " servers checked\n";
    for (const auto& orphan : report.orphans) {
      out << "  orphan subfile " << orphan.subfile << " on " << orphan.server
          << " (" << FormatByteSize(orphan.size) << ")"
          << (repair ? " — removed" : "") << "\n";
    }
    for (const std::string& server : report.unreachable_servers) {
      out << "  unreachable server: " << server << "\n";
    }
    out << (report.clean() ? "clean\n"
                           : repair ? "repaired\n" : "issues found\n");
    return Status::Ok();
  }
  if (cmd == "help") {
    out << "commands: pwd cd ls mkdir rmdir rm mv stat du df servers cp "
           "import export cat chmod chown fsck sql help\n";
    return Status::Ok();
  }
  return InvalidArgumentError("unknown command '" + cmd +
                              "' (try 'help')");
}

Status Shell::CmdCd(const std::vector<std::string>& args) {
  DPFS_RETURN_IF_ERROR(NeedArgs(args, 1, "cd <dir>"));
  DPFS_ASSIGN_OR_RETURN(const std::string path, Resolve(args[0]));
  DPFS_ASSIGN_OR_RETURN(const bool exists,
                        fs_->metadata().DirectoryExists(path));
  if (!exists) return NotFoundError("no such directory '" + path + "'");
  cwd_ = path;
  return Status::Ok();
}

Status Shell::CmdLs(const std::vector<std::string>& args, std::ostream& out) {
  bool long_format = false;
  std::string target;
  for (const std::string& arg : args) {
    if (arg == "-l") {
      long_format = true;
    } else {
      target = arg;
    }
  }
  DPFS_ASSIGN_OR_RETURN(const std::string path, Resolve(target));
  DPFS_ASSIGN_OR_RETURN(const client::MetadataManager::Listing listing,
                        fs_->metadata().ListDirectory(path));
  for (const std::string& dir : listing.directories) {
    out << dir << "/\n";
  }
  for (const std::string& file : listing.files) {
    if (!long_format) {
      out << file << "\n";
      continue;
    }
    const std::string full = (path == "/" ? "" : path) + "/" + file;
    const Result<client::FileRecord> record =
        fs_->metadata().LookupFile(full);
    if (!record.ok()) {
      out << file << "  <missing attributes>\n";
      continue;
    }
    const client::FileMeta& meta = record.value().meta;
    out << file << "  " << meta.owner << "  " << std::oct << meta.permission
        << std::dec << "  " << FormatByteSize(meta.size_bytes) << "  "
        << layout::FileLevelName(meta.level) << "\n";
  }
  return Status::Ok();
}

Status Shell::CmdMkdir(const std::vector<std::string>& args) {
  DPFS_RETURN_IF_ERROR(NeedArgs(args, 1, "mkdir <dir>"));
  DPFS_ASSIGN_OR_RETURN(const std::string path, Resolve(args[0]));
  return fs_->metadata().MakeDirectory(path);
}

Status Shell::CmdRmdir(const std::vector<std::string>& args) {
  DPFS_RETURN_IF_ERROR(NeedArgs(args, 1, "rmdir [-r] <dir>"));
  bool recursive = false;
  std::string target;
  for (const std::string& arg : args) {
    if (arg == "-r") {
      recursive = true;
    } else {
      target = arg;
    }
  }
  DPFS_ASSIGN_OR_RETURN(const std::string path, Resolve(target));
  return fs_->RemoveDirectory(path, recursive);
}

Status Shell::CmdRm(const std::vector<std::string>& args) {
  DPFS_RETURN_IF_ERROR(NeedArgs(args, 1, "rm <file>"));
  DPFS_ASSIGN_OR_RETURN(const std::string path, Resolve(args[0]));
  return fs_->Remove(path);
}

Status Shell::CmdStat(const std::vector<std::string>& args,
                      std::ostream& out) {
  DPFS_RETURN_IF_ERROR(NeedArgs(args, 1, "stat <file>"));
  DPFS_ASSIGN_OR_RETURN(const std::string path, Resolve(args[0]));
  DPFS_ASSIGN_OR_RETURN(const client::FileRecord record,
                        fs_->metadata().LookupFile(path));
  const client::FileMeta& meta = record.meta;
  out << "file:       " << meta.path << "\n"
      << "owner:      " << meta.owner << "\n"
      << "permission: " << std::oct << meta.permission << std::dec << "\n"
      << "size:       " << meta.size_bytes << " ("
      << FormatByteSize(meta.size_bytes) << ")\n"
      << "level:      " << layout::FileLevelName(meta.level) << "\n"
      << "elemsize:   " << meta.element_size << "\n";
  if (!meta.array_shape.empty()) {
    out << "dims:       ";
    for (std::size_t d = 0; d < meta.array_shape.size(); ++d) {
      out << (d ? " x " : "") << meta.array_shape[d];
    }
    out << "\n";
  }
  if (meta.level == layout::FileLevel::kLinear) {
    out << "brick:      " << meta.brick_bytes << " bytes\n";
  } else if (meta.level == layout::FileLevel::kMultidim) {
    out << "brick:      ";
    for (std::size_t d = 0; d < meta.brick_shape.size(); ++d) {
      out << (d ? " x " : "") << meta.brick_shape[d];
    }
    out << " elements\n";
  } else if (meta.pattern.has_value()) {
    out << "pattern:    " << meta.pattern->ToString() << "\n";
  }
  out << "servers:    " << record.servers.size() << "\n";
  for (std::size_t s = 0; s < record.servers.size(); ++s) {
    out << "  [" << s << "] " << record.servers[s].name << "  bricks="
        << record.distribution.bricks_on(static_cast<layout::ServerId>(s))
               .size()
        << "\n";
  }
  return Status::Ok();
}

Status Shell::CmdDf(std::ostream& out) {
  DPFS_ASSIGN_OR_RETURN(const std::vector<client::ServerInfo> servers,
                        fs_->metadata().ListServers());
  out << "server  capacity  performance  used\n";
  for (const client::ServerInfo& server : servers) {
    out << server.name << "  " << FormatByteSize(server.capacity_bytes)
        << "  " << server.performance;
    // Live usage: the sizes of the server's own subfile listing; unreachable
    // servers degrade gracefully.
    auto conn = fs_->connections().Acquire(server.endpoint);
    if (conn.ok()) {
      auto pooled = std::move(conn).value();
      const auto listing = pooled->List();
      if (listing.ok()) {
        std::uint64_t used = 0;
        for (const net::SubfileInfo& info : listing.value()) used += info.size;
        out << "  " << FormatByteSize(used);
      } else {
        pooled.Poison();
        out << "  <unreachable>";
      }
    } else {
      out << "  <unreachable>";
    }
    out << "\n";
  }
  return Status::Ok();
}

Status Shell::CmdServers(std::ostream& out) {
  DPFS_ASSIGN_OR_RETURN(const std::vector<client::ServerInfo> servers,
                        fs_->metadata().ListServers());
  for (const client::ServerInfo& server : servers) {
    out << server.name << "  " << server.endpoint.ToString() << "\n";
  }
  return Status::Ok();
}

Status Shell::CmdCp(const std::vector<std::string>& args, std::ostream& out) {
  DPFS_RETURN_IF_ERROR(NeedArgs(args, 2, "cp <src> <dst>"));
  DPFS_ASSIGN_OR_RETURN(const std::string src, Resolve(args[0]));
  DPFS_ASSIGN_OR_RETURN(const std::string dst, Resolve(args[1]));

  DPFS_ASSIGN_OR_RETURN(client::FileHandle in, fs_->Open(src));
  client::CreateOptions options;
  const client::FileMeta& meta = in.meta();
  options.level = meta.level;
  options.element_size = meta.element_size;
  options.array_shape = meta.array_shape;
  options.total_bytes = meta.size_bytes;
  options.brick_bytes = meta.brick_bytes;
  options.brick_shape = meta.brick_shape;
  options.pattern = meta.pattern;
  options.chunk_grid = meta.chunk_grid;
  options.owner = meta.owner;
  options.permission = meta.permission;
  DPFS_ASSIGN_OR_RETURN(client::FileHandle dst_handle,
                        fs_->Create(dst, options));

  // Stream through the flat byte space for linear files; shaped files copy
  // region by region along the leading dimension.
  if (meta.level == layout::FileLevel::kLinear && meta.array_shape.empty()) {
    Bytes chunk;
    std::uint64_t offset = 0;
    while (offset < meta.size_bytes) {
      const std::uint64_t take =
          std::min<std::uint64_t>(kCopyChunkBytes, meta.size_bytes - offset);
      chunk.resize(take);
      DPFS_RETURN_IF_ERROR(fs_->ReadBytes(in, offset, chunk));
      DPFS_RETURN_IF_ERROR(fs_->WriteBytes(dst_handle, offset, chunk));
      offset += take;
    }
  } else {
    const layout::Shape& shape = meta.array_shape;
    std::uint64_t row_bytes = meta.element_size;
    for (std::size_t d = 1; d < shape.size(); ++d) row_bytes *= shape[d];
    const std::uint64_t rows_per_chunk =
        std::max<std::uint64_t>(1, kCopyChunkBytes / std::max<std::uint64_t>(
                                                         1, row_bytes));
    Bytes chunk;
    for (std::uint64_t row = 0; row < shape[0]; row += rows_per_chunk) {
      const std::uint64_t take =
          std::min<std::uint64_t>(rows_per_chunk, shape[0] - row);
      layout::Region region;
      region.lower.assign(shape.size(), 0);
      region.extent = shape;
      region.lower[0] = row;
      region.extent[0] = take;
      chunk.resize(region.num_elements() * meta.element_size);
      DPFS_RETURN_IF_ERROR(fs_->ReadRegion(in, region, chunk));
      DPFS_RETURN_IF_ERROR(fs_->WriteRegion(dst_handle, region, chunk));
    }
  }
  out << "copied " << FormatByteSize(meta.size_bytes) << " " << src << " -> "
      << dst << "\n";
  return Status::Ok();
}

Status Shell::CmdImport(const std::vector<std::string>& args,
                        std::ostream& out) {
  DPFS_RETURN_IF_ERROR(NeedArgs(args, 2, "import <local-file> <dpfs-file>"));
  std::ifstream in(args[0], std::ios::binary | std::ios::ate);
  if (!in) return IoError("cannot open local file '" + args[0] + "'");
  const std::uint64_t size = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);
  if (size == 0) return InvalidArgumentError("local file is empty");

  DPFS_ASSIGN_OR_RETURN(const std::string dst, Resolve(args[1]));
  client::CreateOptions options;
  options.level = layout::FileLevel::kLinear;
  options.total_bytes = size;
  DPFS_ASSIGN_OR_RETURN(client::FileHandle handle, fs_->Create(dst, options));

  Bytes chunk;
  std::uint64_t offset = 0;
  while (offset < size) {
    const std::uint64_t take =
        std::min<std::uint64_t>(kCopyChunkBytes, size - offset);
    chunk.resize(take);
    in.read(reinterpret_cast<char*>(chunk.data()),
            static_cast<std::streamsize>(take));
    if (!in) return IoError("short read from '" + args[0] + "'");
    DPFS_RETURN_IF_ERROR(fs_->WriteBytes(handle, offset, chunk));
    offset += take;
  }
  out << "imported " << FormatByteSize(size) << " into " << dst << "\n";
  return Status::Ok();
}

Status Shell::CmdExport(const std::vector<std::string>& args,
                        std::ostream& out) {
  DPFS_RETURN_IF_ERROR(NeedArgs(args, 2, "export <dpfs-file> <local-file>"));
  DPFS_ASSIGN_OR_RETURN(const std::string src, Resolve(args[0]));
  DPFS_ASSIGN_OR_RETURN(client::FileHandle handle, fs_->Open(src));
  const std::uint64_t size = handle.meta().size_bytes;

  std::ofstream local(args[1], std::ios::binary | std::ios::trunc);
  if (!local) return IoError("cannot create local file '" + args[1] + "'");

  // Multidimensional files are re-linearized to row-major on export — the
  // "extra in-memory data reorganization" of §3.2 — by reading through the
  // region API, which always yields packed row-major bytes.
  Bytes chunk;
  if (handle.meta().array_shape.empty()) {
    std::uint64_t offset = 0;
    while (offset < size) {
      const std::uint64_t take =
          std::min<std::uint64_t>(kCopyChunkBytes, size - offset);
      chunk.resize(take);
      DPFS_RETURN_IF_ERROR(fs_->ReadBytes(handle, offset, chunk));
      local.write(reinterpret_cast<const char*>(chunk.data()),
                  static_cast<std::streamsize>(take));
      offset += take;
    }
  } else {
    const layout::Shape& shape = handle.meta().array_shape;
    std::uint64_t row_bytes = handle.meta().element_size;
    for (std::size_t d = 1; d < shape.size(); ++d) row_bytes *= shape[d];
    const std::uint64_t rows_per_chunk = std::max<std::uint64_t>(
        1, kCopyChunkBytes / std::max<std::uint64_t>(1, row_bytes));
    for (std::uint64_t row = 0; row < shape[0]; row += rows_per_chunk) {
      const std::uint64_t take =
          std::min<std::uint64_t>(rows_per_chunk, shape[0] - row);
      layout::Region region;
      region.lower.assign(shape.size(), 0);
      region.extent = shape;
      region.lower[0] = row;
      region.extent[0] = take;
      chunk.resize(region.num_elements() * handle.meta().element_size);
      DPFS_RETURN_IF_ERROR(fs_->ReadRegion(handle, region, chunk));
      local.write(reinterpret_cast<const char*>(chunk.data()),
                  static_cast<std::streamsize>(chunk.size()));
    }
  }
  if (!local) return IoError("short write to '" + args[1] + "'");
  out << "exported " << FormatByteSize(size) << " to " << args[1] << "\n";
  return Status::Ok();
}

Status Shell::CmdMv(const std::vector<std::string>& args, std::ostream& out) {
  DPFS_RETURN_IF_ERROR(NeedArgs(args, 2, "mv <src> <dst>"));
  DPFS_ASSIGN_OR_RETURN(const std::string src, Resolve(args[0]));
  DPFS_ASSIGN_OR_RETURN(const std::string dst, Resolve(args[1]));
  // A true rename: one metadata transaction. Subfiles are named by the
  // file's immutable id, so no server is involved.
  DPFS_RETURN_IF_ERROR(fs_->Rename(src, dst));
  out << "renamed " << src << " -> " << dst << "\n";
  return Status::Ok();
}

Result<std::uint64_t> Shell::TreeBytes(const std::string& path) {
  DPFS_ASSIGN_OR_RETURN(const client::MetadataManager::Listing listing,
                        fs_->metadata().ListDirectory(path));
  std::uint64_t total = 0;
  const std::string prefix = path == "/" ? "" : path;
  for (const std::string& file : listing.files) {
    DPFS_ASSIGN_OR_RETURN(const client::FileRecord record,
                          fs_->metadata().LookupFile(prefix + "/" + file));
    total += record.meta.size_bytes;
  }
  for (const std::string& dir : listing.directories) {
    DPFS_ASSIGN_OR_RETURN(const std::uint64_t below,
                          TreeBytes(prefix + "/" + dir));
    total += below;
  }
  return total;
}

Status Shell::CmdDu(const std::vector<std::string>& args, std::ostream& out) {
  DPFS_ASSIGN_OR_RETURN(const std::string path,
                        Resolve(args.empty() ? "" : args[0]));
  DPFS_ASSIGN_OR_RETURN(const std::uint64_t total, TreeBytes(path));
  out << FormatByteSize(total) << "  " << path << "\n";
  return Status::Ok();
}

Status Shell::CmdChmod(const std::vector<std::string>& args) {
  DPFS_RETURN_IF_ERROR(NeedArgs(args, 2, "chmod <octal-mode> <file>"));
  char* end = nullptr;
  const unsigned long mode = std::strtoul(args[0].c_str(), &end, 8);
  if (end != args[0].c_str() + args[0].size() || args[0].empty() ||
      mode > 07777) {
    return InvalidArgumentError("bad mode '" + args[0] +
                                "' (expect octal like 644)");
  }
  DPFS_ASSIGN_OR_RETURN(const std::string path, Resolve(args[1]));
  return fs_->metadata().SetPermission(path,
                                       static_cast<std::uint32_t>(mode));
}

Status Shell::CmdChown(const std::vector<std::string>& args) {
  DPFS_RETURN_IF_ERROR(NeedArgs(args, 2, "chown <owner> <file>"));
  DPFS_ASSIGN_OR_RETURN(const std::string path, Resolve(args[1]));
  return fs_->metadata().SetOwner(path, args[0]);
}

Status Shell::CmdSql(std::string_view line, std::ostream& out) {
  if (line.empty()) return InvalidArgumentError("usage: sql <statement>");
  client::MetadataManager* embedded = fs_->embedded_metadata();
  if (embedded == nullptr) {
    return UnimplementedError(
        "sql needs embedded metadata; this client talks to a remote "
        "metadata server (run the shell on the metad host instead)");
  }
  DPFS_ASSIGN_OR_RETURN(const metadb::ResultSet result,
                        embedded->db().Execute(line));
  if (!result.columns.empty()) {
    out << result.ToString();
  } else {
    out << "ok (" << result.affected_rows << " rows affected)\n";
  }
  return Status::Ok();
}

Status Shell::CmdCat(const std::vector<std::string>& args, std::ostream& out) {
  DPFS_RETURN_IF_ERROR(NeedArgs(args, 1, "cat <file>"));
  DPFS_ASSIGN_OR_RETURN(const std::string src, Resolve(args[0]));
  DPFS_ASSIGN_OR_RETURN(client::FileHandle handle, fs_->Open(src));
  const std::uint64_t size = handle.meta().size_bytes;
  if (!handle.meta().array_shape.empty()) {
    return InvalidArgumentError("cat supports raw linear files only");
  }
  Bytes chunk;
  std::uint64_t offset = 0;
  while (offset < size) {
    const std::uint64_t take =
        std::min<std::uint64_t>(kCopyChunkBytes, size - offset);
    chunk.resize(take);
    DPFS_RETURN_IF_ERROR(fs_->ReadBytes(handle, offset, chunk));
    out.write(reinterpret_cast<const char*>(chunk.data()),
              static_cast<std::streamsize>(take));
    offset += take;
  }
  return Status::Ok();
}

}  // namespace dpfs::shell

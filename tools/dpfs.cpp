// dpfs — the DPFS user-interface CLI (§7) against an existing deployment.
//
//   dpfs --metadb /shared/dpfs-meta                 # interactive shell
//   dpfs --metadb /shared/dpfs-meta --c "ls -l /"    # one command
//   echo "import a.dat /a.dat" | dpfs --metadb DIR  # scripted
//   dpfs --metad host:7060 --c "ls -l /"            # via dpfs-metad
//
// The metadata directory is the one the dpfsd daemons registered into; the
// CLI discovers the I/O servers from the DPFS_SERVER table.
// With --metad the CLI never opens the database: every namespace operation
// goes over the wire to the dpfs-metad at HOST:PORT, so any number of
// shells can run concurrently against one namespace.
#include <cstdio>
#include <iostream>
#include <string>

#include "client/file_system.h"
#include "common/options.h"
#include "shell/shell.h"

int main(int argc, char** argv) {
  using namespace dpfs;
  const Options opts = Options::Parse(argc, argv).value();
  if (!opts.Has("metadb") && !opts.Has("metad")) {
    std::fprintf(stderr,
                 "usage: dpfs --metadb DIR [--c COMMAND]\n"
                 "       dpfs --metad HOST:PORT [--c COMMAND]\n");
    return 2;
  }
  if (opts.Has("metadb") && opts.Has("metad")) {
    std::fprintf(stderr,
                 "dpfs: --metadb and --metad are mutually exclusive (the "
                 "metad owns the database)\n");
    return 2;
  }

  Result<std::shared_ptr<client::FileSystem>> fs =
      InternalError("unreachable");
  if (opts.Has("metad")) {
    Result<net::Endpoint> endpoint =
        net::Endpoint::Parse(opts.GetString("metad", ""));
    if (!endpoint.ok()) {
      std::fprintf(stderr, "dpfs: %s\n",
                   endpoint.status().ToString().c_str());
      return 1;
    }
    fs = client::FileSystem::ConnectRemote(endpoint.value());
  } else {
    Result<std::unique_ptr<metadb::Database>> db =
        metadb::Database::Open(opts.GetString("metadb", ""));
    if (!db.ok()) {
      std::fprintf(stderr, "dpfs: %s\n", db.status().ToString().c_str());
      return 1;
    }
    fs = client::FileSystem::Connect(std::move(db).value());
  }
  if (!fs.ok()) {
    std::fprintf(stderr, "dpfs: %s\n", fs.status().ToString().c_str());
    return 1;
  }
  shell::Shell shell(fs.value());

  if (opts.Has("c")) {
    const Status status = shell.Execute(opts.GetString("c", ""), std::cout);
    if (!status.ok()) {
      std::fprintf(stderr, "dpfs: %s\n", status.ToString().c_str());
      return 1;
    }
    return 0;
  }

  const bool interactive = isatty(fileno(stdin)) != 0;
  std::string line;
  while (true) {
    if (interactive) {
      std::printf("dpfs:%s> ", shell.cwd().c_str());
      std::fflush(stdout);
    }
    if (!std::getline(std::cin, line)) break;
    if (line == "exit" || line == "quit") break;
    const Status status = shell.Execute(line, std::cout);
    if (!status.ok()) std::printf("error: %s\n", status.ToString().c_str());
  }
  return 0;
}

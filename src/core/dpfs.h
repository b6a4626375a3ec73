// DPFS — Distributed Parallel File System: umbrella header.
//
// Pull in this one header to use the whole public API:
//   * dpfs::client::FileSystem / FileHandle — the DPFS API (§6)
//   * dpfs::client::Datatype               — MPI-IO-style derived datatypes
//   * dpfs::client::CollectiveFile         — MPI-IO-style collective layer
//   * dpfs::layout::*                      — striping, placement, planning
//   * dpfs::server::IoServer               — the I/O server
//   * dpfs::metadb::Database               — the embedded metadata database
//   * dpfs::simnet::*                      — the performance-model replayer
//   * dpfs::shell::Shell                   — the user interface (§7)
//   * dpfs::core::LocalCluster             — in-process cluster bootstrap
#pragma once

#include "client/collective.h"   // IWYU pragma: export
#include "client/datatype.h"     // IWYU pragma: export
#include "client/file_system.h"  // IWYU pragma: export
#include "client/metadata.h"     // IWYU pragma: export
#include "core/cluster.h"        // IWYU pragma: export
#include "layout/brick_map.h"    // IWYU pragma: export
#include "layout/hpf.h"          // IWYU pragma: export
#include "layout/placement.h"    // IWYU pragma: export
#include "layout/plan.h"         // IWYU pragma: export
#include "metadb/database.h"     // IWYU pragma: export
#include "server/io_server.h"    // IWYU pragma: export
#include "shell/shell.h"         // IWYU pragma: export
#include "simnet/replay.h"       // IWYU pragma: export

namespace dpfs {

/// Library version.
inline constexpr int kVersionMajor = 1;
inline constexpr int kVersionMinor = 0;
inline constexpr int kVersionPatch = 0;

}  // namespace dpfs

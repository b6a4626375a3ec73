#include "core/cluster.h"

namespace dpfs::core {

Result<std::unique_ptr<LocalCluster>> LocalCluster::Start(
    ClusterOptions options) {
  if (options.num_servers == 0) {
    return InvalidArgumentError("cluster needs at least one server");
  }
  if (!options.performance.empty() &&
      options.performance.size() != options.num_servers) {
    return InvalidArgumentError(
        "performance vector must match num_servers or be empty");
  }
  if (options.metadata_cache_ttl.count() != 0) {
    return InvalidArgumentError(
        "metadata_cache_ttl is retired: the client keeps no lookup cache");
  }

  std::unique_ptr<LocalCluster> cluster(new LocalCluster());
  if (options.root_dir.empty()) {
    DPFS_ASSIGN_OR_RETURN(TempDir temp, TempDir::Create("dpfs-cluster"));
    cluster->root_ = temp.path();
    cluster->owned_root_.emplace(std::move(temp));
  } else {
    cluster->root_ = options.root_dir;
    std::error_code ec;
    std::filesystem::create_directories(cluster->root_, ec);
    if (ec) return IoError("create cluster root: " + ec.message());
  }

  if (options.durable_metadata) {
    DPFS_ASSIGN_OR_RETURN(cluster->db_,
                          metadb::Database::Open(cluster->root_ / "metadb"));
  } else {
    cluster->db_ = metadb::Database::OpenInMemory();
  }

  cluster->max_sessions_ = options.max_sessions;

  if (options.start_metadata_service) {
    metad::MetadOptions metad_options;
    metad_options.max_sessions = options.max_sessions;
    DPFS_ASSIGN_OR_RETURN(
        cluster->metad_,
        metad::MetadService::Start(cluster->db_, metad_options));
    DPFS_ASSIGN_OR_RETURN(
        cluster->fs_,
        client::FileSystem::ConnectRemote(cluster->metad_->endpoint()));
  } else {
    DPFS_ASSIGN_OR_RETURN(cluster->fs_,
                          client::FileSystem::Connect(cluster->db_));
  }
  for (std::uint32_t i = 0; i < options.num_servers; ++i) {
    server::ServerOptions server_options;
    server_options.root_dir =
        cluster->root_ / ("server" + std::to_string(i));
    server_options.max_sessions = options.max_sessions;
    DPFS_ASSIGN_OR_RETURN(std::unique_ptr<server::IoServer> server,
                          server::IoServer::Start(std::move(server_options)));

    client::ServerInfo info;
    // Zero-padded so name order == registration order (ListServers sorts by
    // name), keeping server indices stable.
    char name[32];
    std::snprintf(name, sizeof(name), "ionode%03u.dpfs.local", i);
    info.name = name;
    info.endpoint = server->endpoint();
    info.capacity_bytes = options.capacity_bytes;
    info.performance =
        options.performance.empty() ? 1u : options.performance[i];
    // Durable metadata may hold a row from a previous run of this cluster
    // (same name, stale port) — replace it, as dpfsd does on restart.
    (void)cluster->fs_->metadata().UnregisterServer(info.name);
    DPFS_RETURN_IF_ERROR(cluster->fs_->metadata().RegisterServer(info));

    cluster->servers_.push_back(std::move(server));
  }
  return cluster;
}

LocalCluster::~LocalCluster() { Stop(); }

void LocalCluster::Stop() {
  // Drop pooled client connections first so server session threads unblock.
  if (fs_ != nullptr) fs_->connections().Clear();
  for (const std::unique_ptr<server::IoServer>& server : servers_) {
    if (server != nullptr) server->Stop();
  }
  if (metad_ != nullptr) metad_->Stop();
}

Status LocalCluster::RestartServer(std::size_t index) {
  if (index >= servers_.size()) {
    return InvalidArgumentError("no server at index " + std::to_string(index));
  }
  const net::Endpoint endpoint = servers_[index]->endpoint();
  servers_[index]->Stop();
  servers_[index].reset();  // release the port before rebinding it

  server::ServerOptions server_options;
  server_options.root_dir = root_ / ("server" + std::to_string(index));
  server_options.port = endpoint.port;  // keep the registered endpoint valid
  server_options.max_sessions = max_sessions_;
  DPFS_ASSIGN_OR_RETURN(servers_[index],
                        server::IoServer::Start(std::move(server_options)));
  return Status::Ok();
}

Status LocalCluster::RestartMetad() {
  if (metad_ == nullptr) {
    return InvalidArgumentError(
        "cluster has no in-process metadata service "
        "(set ClusterOptions::start_metadata_service)");
  }
  const net::Endpoint endpoint = metad_->endpoint();
  metad_->Stop();
  metad_.reset();  // release the port before rebinding it

  metad::MetadOptions options;
  options.port = endpoint.port;  // clients redial the endpoint they know
  options.max_sessions = max_sessions_;
  DPFS_ASSIGN_OR_RETURN(metad_,
                        metad::MetadService::Start(db_, options));
  return Status::Ok();
}

}  // namespace dpfs::core

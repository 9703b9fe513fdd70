#include "cluster/cluster.h"

#include "fault/failpoint.h"
#include "util/logging.h"

namespace diffindex {

Cluster::Cluster(const ClusterOptions& options)
    : options_(options), latency_(options.latency) {}

Status Cluster::Create(const ClusterOptions& options,
                       std::unique_ptr<Cluster>* cluster) {
  // ANALYZER_WAIVE(naked-new): private ctor, owned by a smart pointer
  std::unique_ptr<Cluster> c(new Cluster(options));
  DIFFINDEX_RETURN_NOT_OK(c->Init());
  *cluster = std::move(c);
  return Status::OK();
}

Cluster::~Cluster() {
  // Stop index managers first (their APS threads talk over the fabric),
  // then servers, then the master.
  for (auto& [id, bundle] : servers_) {
    if (bundle.index_manager != nullptr) bundle.index_manager->Shutdown();
  }
  for (auto& bundle : graveyard_) {
    if (bundle.index_manager != nullptr) bundle.index_manager->Shutdown();
  }
  for (auto& [id, bundle] : servers_) {
    // Teardown keeps going even if one server's final flush fails. A
    // failed Stop() returns before joining the heartbeat thread, which
    // polls the index manager destroyed below; Crash() joins it.
    if (!bundle.server->Stop().ok()) bundle.server->Crash();
  }
  if (master_ != nullptr) master_->Stop();
  servers_.clear();
  graveyard_.clear();
  // Detach the global failpoint registry from this cluster's metrics (if
  // Init attached it) before the registry member dies.
  auto* failpoints = fault::FailpointRegistry::Global();
  if (failpoints->metrics() == &metrics_) failpoints->SetMetrics(nullptr);
  if (options_.remove_data_on_destroy && !options_.data_root.empty()) {
    // Best-effort cleanup of the test/bench data root.
    options_.env->RemoveDirRecursively(options_.data_root).IgnoreError();
  }
}

Status Cluster::Init() {
  if (options_.env == nullptr) options_.env = Env::Default();
  if (options_.data_root.empty()) {
    options_.data_root =
        "/tmp/diffindex_cluster_" +
        std::to_string(TimestampOracle::NowMicros()) + "_" +
        std::to_string(reinterpret_cast<uintptr_t>(this) & 0xffff);
  }
  DIFFINDEX_RETURN_NOT_OK(
      options_.env->CreateDirIfMissing(options_.data_root));

  options_.server.lsm.env = options_.env;
  options_.server.lsm.latency = &latency_;
  options_.master.default_regions_per_table = options_.regions_per_table;

  // One registry/collector for the whole deployment: fabric, servers,
  // LSM trees, AUQ/APS and clients all report here.
  options_.server.metrics = &metrics_;
  options_.server.traces = &traces_;
  options_.server.lsm.metrics = &metrics_;
  options_.master.metrics = &metrics_;
  options_.auq.metrics = &metrics_;
  options_.auq.traces = &traces_;
  stats_.Bind(&metrics_);
  // Injected faults count into the same deployment-wide registry
  // (fault.injected.* from failpoints, fault.net.* from the fabric).
  fault::FailpointRegistry::Global()->SetMetrics(&metrics_);

  fabric_ = std::make_unique<Fabric>(&latency_);
  fabric_->SetObservers(&metrics_, &traces_);
  master_ = std::make_unique<Master>(fabric_.get(), options_.data_root,
                                     options_.master);
  DIFFINDEX_RETURN_NOT_OK(master_->Start());

  for (int i = 1; i <= options_.num_servers; i++) {
    DIFFINDEX_RETURN_NOT_OK(AddServer(static_cast<NodeId>(i)));
  }
  return Status::OK();
}

Status Cluster::StartServer(NodeId id, ServerBundle* bundle) {
  bundle->server = std::make_shared<RegionServer>(
      id, options_.data_root, fabric_.get(), options_.server);
  // The coprocessors deliver index updates through an internal client
  // whose fabric identity is the server itself.
  ClientOptions internal_opts = options_.client;
  internal_opts.metrics = &metrics_;
  internal_opts.traces = &traces_;
  bundle->internal_client =
      std::make_shared<Client>(fabric_.get(), id, internal_opts);
  bundle->index_manager = std::make_unique<IndexManager>(
      bundle->server.get(), bundle->internal_client, &stats_, options_.auq);
  // Hooks go in before Start(): Start() launches the heartbeat thread,
  // which reads them.
  bundle->server->SetHooks(bundle->index_manager.get());
  return bundle->server->Start();
}

Status Cluster::AddServer(NodeId id) {
  if (servers_.count(id) > 0) {
    return Status::InvalidArgument("server id in use");
  }
  ServerBundle bundle;
  DIFFINDEX_RETURN_NOT_OK(StartServer(id, &bundle));
  DIFFINDEX_RETURN_NOT_OK(master_->RegisterServer(bundle.server.get()));
  servers_[id] = std::move(bundle);
  return Status::OK();
}

Status Cluster::SilentlyCrashServer(NodeId id) {
  auto it = servers_.find(id);
  if (it == servers_.end()) return Status::NotFound("no such server");

  // The crash: node unreachable, pending AUQ work and memtables lost.
  // Abandon (not Shutdown) the index manager: a graceful shutdown would
  // keep delivering the queued index updates — work a real crash loses —
  // and would leave their count stuck in the shared auq.depth gauge.
  fabric_->SetNodeDown(id, true);
  fabric_->UnregisterNode(id);
  it->second.server->Crash();
  it->second.index_manager->Abandon();

  // Quarantine the object (in-flight RPC handlers may still reference it).
  graveyard_.push_back(std::move(it->second));
  servers_.erase(it);
  return Status::OK();
}

Status Cluster::KillServer(NodeId id) {
  DIFFINDEX_RETURN_NOT_OK(SilentlyCrashServer(id));
  // ZooKeeper-equivalent: detect and reassign, with WAL split + replay on
  // the new owners.
  return master_->OnServerDead(id);
}

RegionServer* Cluster::server(NodeId id) {
  auto it = servers_.find(id);
  return it == servers_.end() ? nullptr : it->second.server.get();
}

IndexManager* Cluster::index_manager(NodeId id) {
  auto it = servers_.find(id);
  return it == servers_.end() ? nullptr : it->second.index_manager.get();
}

std::vector<NodeId> Cluster::server_ids() const {
  std::vector<NodeId> ids;
  ids.reserve(servers_.size());
  for (const auto& [id, bundle] : servers_) ids.push_back(id);
  return ids;
}

std::shared_ptr<Client> Cluster::NewClient() {
  const NodeId node = next_client_node_.fetch_add(1);
  ClientOptions opts = options_.client;
  opts.metrics = &metrics_;
  opts.traces = &traces_;
  return std::make_shared<Client>(fabric_.get(), node, opts);
}

std::unique_ptr<DiffIndexClient> Cluster::NewDiffIndexClient(
    const SessionOptions& session_options) {
  return std::make_unique<DiffIndexClient>(NewClient(), &stats_,
                                           session_options);
}

void Cluster::AggregateStaleness(Histogram* out) const {
  for (const auto& [id, bundle] : servers_) {
    out->Merge(bundle.index_manager->auq()->staleness());
  }
  for (const auto& bundle : graveyard_) {
    out->Merge(bundle.index_manager->auq()->staleness());
  }
}

}  // namespace diffindex

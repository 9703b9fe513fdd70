// Cluster: one-call harness that assembles the whole simulated deployment
// — fabric, master, N region servers each with its Diff-Index coprocessors
// (IndexManager: observers + AUQ/APS) — the stand-in for the paper's
// physical HBase clusters. Used by the tests, the examples and every
// benchmark.

#ifndef DIFFINDEX_CLUSTER_CLUSTER_H_
#define DIFFINDEX_CLUSTER_CLUSTER_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/client.h"
#include "cluster/master.h"
#include "cluster/region_server.h"
#include "core/auq.h"
#include "core/diff_index_client.h"
#include "core/observers.h"
#include "core/op_stats.h"
#include "net/fabric.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace diffindex {

struct ClusterOptions {
  int num_servers = 3;
  int regions_per_table = 8;

  // Injected device/network costs. scale = 0 (default) disables cost
  // injection for fast tests; benchmarks set scale = 1.
  LatencyParams latency = [] {
    LatencyParams p;
    p.scale = 0;
    return p;
  }();

  RegionServerOptions server;
  AuqOptions auq;
  MasterOptions master;
  // Template for every client this cluster hands out (NewClient /
  // NewDiffIndexClient and the servers' internal index-maintenance
  // clients); metrics/traces/jitter-seed are filled in per client.
  ClientOptions client;

  // Root directory for WALs and region data (the "HDFS"). Empty: a fresh
  // directory under /tmp. remove_data_on_destroy wipes it in ~Cluster.
  std::string data_root;
  bool remove_data_on_destroy = true;

  // Filesystem used by every server's WAL/SSTs (and for data_root setup /
  // teardown). Null: Env::Default(). The chaos harness passes a
  // fault::FaultEnv here so injected I/O errors flow through the real
  // write path.
  Env* env = nullptr;
};

class Cluster {
 public:
  static Status Create(const ClusterOptions& options,
                       std::unique_ptr<Cluster>* cluster);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  Master* master() { return master_.get(); }
  Fabric* fabric() { return fabric_.get(); }
  LatencyModel* latency() { return &latency_; }
  OpStats* stats() { return &stats_; }
  // Cluster-wide observability: every node, client and subsystem of this
  // cluster reports into the same registry/collector.
  obs::MetricsRegistry* metrics() { return &metrics_; }
  obs::TraceCollector* traces() { return &traces_; }
  const std::string& data_root() const { return options_.data_root; }

  RegionServer* server(NodeId id);
  std::vector<NodeId> server_ids() const;
  IndexManager* index_manager(NodeId id);

  // Fresh client endpoints (each gets its own fabric node id).
  std::shared_ptr<Client> NewClient();
  std::unique_ptr<DiffIndexClient> NewDiffIndexClient(
      const SessionOptions& session_options = SessionOptions());

  // ---- Membership / failure injection ----

  Status AddServer(NodeId id);
  // Simulates a crash: the node drops off the fabric, its memtables and
  // AUQ are lost, and the master reassigns + recovers its regions from
  // the shared WAL/SST storage.
  Status KillServer(NodeId id);
  // Crash WITHOUT telling the master — the heartbeat-based failure
  // detector has to notice on its own (requires
  // MasterOptions::failure_detect_ms > 0).
  Status SilentlyCrashServer(NodeId id);

  // Aggregate AUQ staleness across servers into *out (Figure 11 probe).
  void AggregateStaleness(Histogram* out) const;

 private:
  explicit Cluster(const ClusterOptions& options);
  Status Init();

  struct ServerBundle {
    std::shared_ptr<RegionServer> server;
    std::shared_ptr<Client> internal_client;
    std::unique_ptr<IndexManager> index_manager;
  };

  Status StartServer(NodeId id, ServerBundle* bundle);

  ClusterOptions options_;
  LatencyModel latency_;
  OpStats stats_;
  obs::MetricsRegistry metrics_;
  obs::TraceCollector traces_;
  std::unique_ptr<Fabric> fabric_;
  std::unique_ptr<Master> master_;
  std::map<NodeId, ServerBundle> servers_;
  // Crashed servers are quarantined (never destroyed mid-RPC) until the
  // cluster itself is torn down.
  std::vector<ServerBundle> graveyard_;
  std::atomic<NodeId> next_client_node_{kClientNodeBase};
};

}  // namespace diffindex

#endif  // DIFFINDEX_CLUSTER_CLUSTER_H_

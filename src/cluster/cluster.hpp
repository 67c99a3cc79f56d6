// Sharded plan-serving cluster (in-process simulation).
//
// Scales PlanService past one process: a ClusterController fronts N
// WorkerNodes, each owning its own executor thread pool, its own
// PlanService (content-addressed profile/sigma/plan caches), and a
// checksum-verified node-local plan cache. The robustness contract is the
// headline: under injected node kills, slowdowns, and poisoned
// (bit-flipped) cache entries, the cluster must converge to plans
// byte-identical to a single-process PlanService run — degraded latency
// is acceptable, degraded answers are not (tests/test_cluster.cpp holds
// the line under ASan and TSan).
//
// Routing / resilience policy:
//  * SHARDING: plan queries are sharded by consistent hashing on the
//    query's network content hash — cfg.virtual_nodes ring points per
//    node, cfg.replicas distinct nodes clockwise from the key's point
//    form the replica set. All profile/sigma/plan reuse for one network
//    therefore concentrates on the same few nodes.
//  * SELECTION: among replicas whose circuit breaker admits, the node
//    with the lowest (load + 1) / weight wins (weighted least-loaded;
//    load = queued + in-flight).
//  * CIRCUIT BREAKERS: one per node (cluster/breaker.hpp). Timeouts and
//    errors trip it open; recovery is probe-based (half-open admits
//    exactly one probe).
//  * RETRIES: deadline-bounded attempts with exponential backoff and
//    seeded jitter. A retry never re-waits on a node that already has an
//    unresolved dispatch for this query.
//  * HEDGING: when the primary dispatch has not answered within
//    hedge_delay_us, the query is hedged to a second admitted replica;
//    first response wins, the loser is cancelled (its node observes the
//    settled query state and discards the work).
//  * REPLICATION: profile bundles flow between replicas as SealedProfile
//    (bundle + content checksum). A bit-flipped bundle is rejected at the
//    cluster seam; a stale one is rejected by PlanService::load_profile's
//    network-hash check. A rejected replica simply re-measures.
//
// Failure injection: each node consults FaultInjector point
// "cluster.node<i>" per dispatch — kDelay stalls it (stop() cancels the
// stall), kDrop makes the node unresponsive for that dispatch, and the
// data kinds bit-flip the node's cached entry for the query (which the
// checksum then catches). kill_node parks the executor threads
// wholesale. Every breaker transition, retry, hedge, and rejection flows
// through src/obs counters (cluster.* — docs/method.md Sec. 13) and the
// controller's DiagnosticSink.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/breaker.hpp"
#include "core/fault.hpp"
#include "io/profile_io.hpp"
#include "obs/trace.hpp"
#include "serve/plan_service.hpp"

namespace mupod {

// One steady-clock timeline shared by every breaker and deadline in the
// process (microseconds since the first call). Aliases of core/clock.hpp's
// mono_origin/mono_now_us, kept so cluster call sites read in cluster
// vocabulary; the inference server (src/infer) shares the same origin.
std::chrono::steady_clock::time_point cluster_origin();
std::int64_t cluster_now_us();

struct ClusterConfig {
  int nodes = 3;
  int replicas = 2;       // replica set size on the hash ring
  int virtual_nodes = 32; // ring points per node
  int node_threads = 2;   // executor threads per worker node
  // Per-dispatch patience: a node that has not answered within this is
  // recorded as a breaker failure and the query moves on.
  std::int64_t attempt_timeout_us = 500'000;
  // Straggler threshold: hedge to a second replica after this long.
  std::int64_t hedge_delay_us = 20'000;
  bool hedging = true;
  int max_attempts = 4;
  std::int64_t deadline_us = 5'000'000;  // overall per-query deadline
  std::int64_t backoff_base_us = 500;    // doubled per attempt
  double backoff_jitter = 0.5;           // uniform [0, jitter) multiplier
  std::uint64_t seed = 0x5eedULL;        // jitter determinism
  BreakerConfig breaker;
  // Per-node capacity weights for least-loaded selection; empty = all 1.
  std::vector<double> node_weights;
};

// What a node posts back for a dispatched query.
struct ClusterResponse {
  bool ok = false;
  PlanResult plan;
  std::string error;
  int node = -1;
  bool from_hedge = false;
};

// Shared first-response-wins slot for one query; every dispatch of the
// query (primary, hedges, retries) references the same state.
struct ClusterQueryState {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::atomic<bool> cancelled{false};
  ClusterResponse resp;

  bool is_done() {
    std::lock_guard<std::mutex> lk(mu);
    return done;
  }
  bool finished() {
    if (cancelled.load(std::memory_order_relaxed)) return true;
    return is_done();
  }
  // Returns done; wakes early when a (late) dispatch settles the query.
  bool wait_until_us(std::int64_t deadline_us) {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait_until(lk, cluster_origin() + std::chrono::microseconds(deadline_us),
                  [&] { return done; });
    return done;
  }
};

// One dispatch of a query to one node.
struct ClusterDispatch {
  std::shared_ptr<ClusterQueryState> q;
  PlanKey key;
  PlanQuery query;
  int node = -1;
  int attempt = 0;     // 1-based attempt round that issued this dispatch
  // Child context of the query's trace, carried across the node-queue hop;
  // the executing worker installs it so its attempt span (and the
  // PlanService stage spans under it) correlate to the query.
  TraceContext ctx;
  bool probe = false;  // admitted as the node's half-open probe
  bool hedge = false;
  std::atomic<bool> completed{false};
  // First resolver (node on completion, router on timeout) does the
  // breaker accounting; the other side skips.
  std::atomic<bool> breaker_resolved{false};
};

struct ClusterQueryResult {
  bool ok = false;
  PlanResult plan;
  std::string error;   // the explicit diagnosis when !ok
  int node = -1;       // responding node
  int attempts = 0;    // dispatch rounds (retries = attempts - 1)
  int hedges = 0;      // hedge dispatches issued
  bool hedge_won = false;
  int timeouts = 0;    // dispatches abandoned at attempt_timeout
  int rejected = 0;    // breaker fast-fails observed while routing
  double wall_ms = 0.0;
  // Correlation id of the query's trace (0 when tracing was off): joins
  // this result to its Chrome-trace lane and flight-recorder record.
  std::uint64_t trace_id = 0;
};

struct NodeStats {
  int id = -1;
  bool killed = false;
  int load = 0;
  std::int64_t served = 0;        // responses posted (won or lost)
  std::int64_t errors = 0;        // PlanService failures surfaced
  std::int64_t hedge_losses = 0;  // completed after another replica won
  std::int64_t cache_hits = 0;    // node-local verified cache
  std::int64_t cache_misses = 0;
  std::int64_t poison_injected = 0;  // data-fault bit flips applied
  std::int64_t poison_rejected = 0;  // checksum mismatches caught
  std::int64_t bundles_accepted = 0;
  std::int64_t bundles_rejected = 0;  // sealed-checksum mismatches
  std::int64_t dropped = 0;  // kDrop faults + killed-before-reply
  std::int64_t delayed = 0;  // kDelay faults honored
  BreakerCounters breaker;
  BreakerState breaker_state = BreakerState::kClosed;
};

struct ClusterStats {
  std::int64_t queries_ok = 0;
  std::int64_t queries_failed = 0;
  std::int64_t attempts = 0;
  std::int64_t retries = 0;
  std::int64_t hedges = 0;
  std::int64_t hedge_wins = 0;
  std::int64_t timeouts = 0;
  std::int64_t breaker_rejections = 0;
  std::vector<NodeStats> nodes;
};

// A profile bundle sealed for replication: checksum over the serialized
// bundle bytes, verified at the receiving node before load_profile.
struct SealedProfile {
  ProfileBundle bundle;
  std::uint64_t checksum = 0;
};
SealedProfile seal_profile(const ProfileBundle& bundle);

// Content checksum guarding node-local cached plans against bit flips.
std::uint64_t plan_result_checksum(const PlanResult& r);
// Node-cache key for one (network, query) pair.
std::string cluster_query_key(const PlanKey& key, const PlanQuery& query);

class ClusterController;

// One worker node: its own executor threads, its own PlanService, and a
// checksum-verified plan cache in front of it. Nodes never talk to each
// other — replication and routing are the controller's job.
class WorkerNode {
 public:
  WorkerNode(int id, const ClusterConfig& cfg, const PlanServiceConfig& service_cfg,
             FaultInjector* faults, CircuitBreaker* breaker, DiagnosticSink* diag);
  ~WorkerNode();
  WorkerNode(const WorkerNode&) = delete;
  WorkerNode& operator=(const WorkerNode&) = delete;

  int id() const { return id_; }
  // FaultInjector point this node consults per dispatch: "cluster.node<i>".
  const std::string& fault_point() const { return point_; }
  PlanService& service() { return service_; }

  PlanKey register_network(const Network& net, std::vector<int> analyzed,
                           const SyntheticImageDataset& dataset);

  void start();
  void stop();
  // Unresponsive-node simulation: queued and in-flight dispatches are
  // never answered (a crashed process, not a clean error). revive() brings
  // the executors back; stale dispatches whose queries have settled are
  // discarded on pop.
  void kill();
  void revive();
  bool killed() const { return killed_.load(std::memory_order_relaxed); }

  void submit(std::shared_ptr<ClusterDispatch> d);
  // Weighted-least-loaded input: queued + in-flight dispatches.
  int load() const;

  // Flips one bit in the node-local cached plan for (key, query); returns
  // false when nothing is cached. The checksum catches it on next read.
  bool poison_cache(const PlanKey& key, const PlanQuery& query);
  // Verifies the sealed checksum, then PlanService::load_profile (which
  // re-checks the network hash). False = rejected or already measured.
  bool seed_profile(const PlanKey& key, const SealedProfile& sealed);

  NodeStats stats() const;

 private:
  struct CachedPlan {
    PlanResult plan;
    std::uint64_t checksum = 0;
  };

  void run_worker();
  void execute(const std::shared_ptr<ClusterDispatch>& d);

  const int id_;
  const std::string point_;
  ClusterConfig cfg_;
  PlanService service_;
  FaultInjector* faults_;      // borrowed from the controller; may be null
  CircuitBreaker* breaker_;    // borrowed from the controller
  DiagnosticSink* diag_;       // borrowed from the controller; may be null

  mutable std::mutex qmu_;
  std::condition_variable qcv_;
  std::deque<std::shared_ptr<ClusterDispatch>> queue_;
  std::vector<std::thread> threads_;
  bool stop_ = false;  // guarded by qmu_
  std::atomic<bool> killed_{false};
  std::atomic<int> inflight_{0};

  mutable std::mutex cache_mu_;
  std::map<std::string, CachedPlan> cache_;

  std::atomic<std::int64_t> served_{0}, errors_{0}, hedge_losses_{0};
  std::atomic<std::int64_t> cache_hits_{0}, cache_misses_{0};
  std::atomic<std::int64_t> poison_injected_{0}, poison_rejected_{0};
  std::atomic<std::int64_t> bundles_accepted_{0}, bundles_rejected_{0};
  std::atomic<std::int64_t> dropped_{0}, delayed_{0};
};

class ClusterController {
 public:
  ClusterController(ClusterConfig cfg, PlanServiceConfig service_cfg);
  ~ClusterController();
  ClusterController(const ClusterController&) = delete;
  ClusterController& operator=(const ClusterController&) = delete;

  const ClusterConfig& config() const { return cfg_; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  WorkerNode& node(int id) { return *nodes_.at(static_cast<std::size_t>(id)); }
  CircuitBreaker& breaker(int id) { return *breakers_.at(static_cast<std::size_t>(id)); }
  FaultInjector& faults() { return faults_; }
  // Breaker transitions, poison detections, replication rejections, and
  // failed queries, attributed under PipelineStage::kServe.
  const DiagnosticSink& diagnostics() const { return diag_; }

  // Registers on every node (identical content-addressed key everywhere).
  PlanKey register_network(const Network& net, std::vector<int> analyzed,
                           const SyntheticImageDataset& dataset);

  // Replica set for a key hash: cfg.replicas distinct nodes clockwise on
  // the ring. Deterministic for a given (nodes, virtual_nodes).
  std::vector<int> replicas_for_hash(std::uint64_t h) const;

  // Routes, retries, hedges; never throws for serving failures — a query
  // either succeeds or returns ok=false with an explicit diagnosis.
  ClusterQueryResult plan(const PlanKey& key, const PlanQuery& query);
  ClusterQueryResult plan(const PlanKey& key, const PlanQuery& query, std::int64_t deadline_us);

  // Warms the profile on the key's primary replica and replicates the
  // sealed bundle to the other replicas. Returns bundles accepted.
  int replicate_profile(const PlanKey& key);
  // Offers a sealed bundle to every replica of the key (chaos hook for
  // corrupt-in-transit scenarios). Returns bundles accepted.
  int seed_profile(const PlanKey& key, const SealedProfile& sealed);

  void kill_node(int id);
  void revive_node(int id);
  bool poison_cache(int id, const PlanKey& key, const PlanQuery& query);

  // Lazily resolves parked dispatches whose attempt deadline has passed
  // (e.g. a hedge won and the straggler never answered): each becomes a
  // breaker failure for its node unless the node completed it meanwhile.
  // plan() sweeps on entry; chaos tests/benches may call it directly to
  // observe breaker trips without issuing further queries.
  void sweep_pending();

  ClusterStats stats() const;

 private:
  struct Candidate {
    int node = -1;
    bool probe = false;
  };
  // Weighted least-loaded admitted replica, excluding `exclude` node ids;
  // counts breaker fast-fails into *rejected. node = -1 when none admit.
  Candidate pick(const std::vector<int>& replicas, const std::vector<int>& exclude,
                 std::int64_t now_us, int* rejected);
  double weight(int id) const;
  void sweep_pending(std::int64_t now_us);

  ClusterConfig cfg_;
  FaultInjector faults_;
  DiagnosticSink diag_;
  std::vector<std::unique_ptr<CircuitBreaker>> breakers_;
  std::vector<std::unique_ptr<WorkerNode>> nodes_;
  std::vector<std::pair<std::uint64_t, int>> ring_;  // sorted (point, node)

  // Dispatches whose query settled before they answered, parked with their
  // attempt deadline until sweep_pending() resolves or discards them.
  std::mutex pending_mu_;
  std::vector<std::pair<std::shared_ptr<ClusterDispatch>, std::int64_t>> pending_;

  std::atomic<std::uint64_t> query_seq_{0};
  std::atomic<std::int64_t> queries_ok_{0}, queries_failed_{0};
  std::atomic<std::int64_t> attempts_{0}, retries_{0};
  std::atomic<std::int64_t> hedges_{0}, hedge_wins_{0};
  std::atomic<std::int64_t> timeouts_{0}, breaker_rejections_{0};
};

}  // namespace mupod

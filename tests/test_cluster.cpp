// Sharded plan-serving cluster battery (src/cluster).
//
// Three layers of assertions, all sanitizer-clean (this file is in the
// `sanitize` ctest label, so the TSan lane exercises the controller /
// worker handoff, the hedge race, and the breaker accounting):
//
//  1. CircuitBreaker state machine in isolation, driven by a FAKE CLOCK
//     (explicit microsecond timestamps, no sleeping): closed -> open on
//     the failure threshold, half-open single-probe admission, reopen on
//     probe failure, close on probe success.
//  2. FaultInjector determinism: counter windows and seeded-probability
//     schedules are pre-committed coin flips, identical across injectors.
//  3. The robustness contract end to end: under node kills, injected
//     stragglers, and poisoned (bit-flipped) cache entries, every query
//     either succeeds with a plan BYTE-IDENTICAL to a single-process
//     PlanService run or returns an explicit diagnosed failure — never a
//     crash, never a silently wrong answer.
#include "cluster/cluster.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "core/fault.hpp"
#include "data/synthetic.hpp"
#include "obs/metrics.hpp"
#include "zoo/zoo.hpp"

namespace mupod {
namespace {

// --- circuit breaker (fake clock) ------------------------------------------

BreakerConfig fast_breaker() {
  BreakerConfig b;
  b.failure_threshold = 3;
  b.cooldown_us = 1000;
  b.probe_successes = 1;
  return b;
}

TEST(CircuitBreaker, TripsOpenAfterConsecutiveFailures) {
  CircuitBreaker b(fast_breaker());
  EXPECT_EQ(b.admit(0), BreakerDecision::kAdmit);
  b.record_failure(1);
  b.record_failure(2);
  EXPECT_EQ(b.state(3), BreakerState::kClosed);
  // A success resets the consecutive-failure streak.
  b.record_success(3);
  b.record_failure(4);
  b.record_failure(5);
  EXPECT_EQ(b.state(6), BreakerState::kClosed);
  b.record_failure(6);
  EXPECT_EQ(b.state(7), BreakerState::kOpen);
  EXPECT_EQ(b.admit(7), BreakerDecision::kReject);
  const BreakerCounters c = b.counters();
  EXPECT_EQ(c.opened, 1);
  EXPECT_EQ(c.rejected, 1);
}

TEST(CircuitBreaker, CooldownAdmitsExactlyOneProbe) {
  CircuitBreaker b(fast_breaker());
  for (int i = 0; i < 3; ++i) b.record_failure(i);
  EXPECT_EQ(b.admit(500), BreakerDecision::kReject);
  // Cooldown elapsed (2 + 1000): the next caller IS the probe...
  EXPECT_EQ(b.state(1500), BreakerState::kHalfOpen);
  EXPECT_EQ(b.admit(1500), BreakerDecision::kProbe);
  // ...and while it is in flight everyone else fast-fails.
  EXPECT_EQ(b.admit(1501), BreakerDecision::kReject);
  EXPECT_EQ(b.admit(1502), BreakerDecision::kReject);
  b.record_success(1600, /*probe=*/true);
  EXPECT_EQ(b.state(1601), BreakerState::kClosed);
  EXPECT_EQ(b.admit(1601), BreakerDecision::kAdmit);
  const BreakerCounters c = b.counters();
  EXPECT_EQ(c.opened, 1);
  EXPECT_EQ(c.probes, 1);
  EXPECT_EQ(c.closed, 1);
  EXPECT_EQ(c.rejected, 3);
}

TEST(CircuitBreaker, ProbeFailureReopensForAnotherCooldown) {
  CircuitBreaker b(fast_breaker());
  for (int i = 0; i < 3; ++i) b.record_failure(i);
  EXPECT_EQ(b.admit(1500), BreakerDecision::kProbe);
  b.record_failure(1600, /*probe=*/true);
  EXPECT_EQ(b.state(1601), BreakerState::kOpen);
  EXPECT_EQ(b.admit(2000), BreakerDecision::kReject);  // new cooldown from 1600
  EXPECT_EQ(b.admit(2700), BreakerDecision::kProbe);
  b.record_success(2800, /*probe=*/true);
  EXPECT_EQ(b.state(2801), BreakerState::kClosed);
  const BreakerCounters c = b.counters();
  EXPECT_EQ(c.reopened, 1);
  EXPECT_EQ(c.closed, 1);
  EXPECT_EQ(c.probes, 2);
}

TEST(CircuitBreaker, ClosingCanRequireMultipleProbeSuccesses) {
  BreakerConfig cfg = fast_breaker();
  cfg.failure_threshold = 1;
  cfg.probe_successes = 2;
  CircuitBreaker b(cfg);
  b.record_failure(0);
  EXPECT_EQ(b.admit(1000), BreakerDecision::kProbe);
  b.record_success(1001, /*probe=*/true);
  EXPECT_EQ(b.state(1002), BreakerState::kHalfOpen);  // one success is not enough
  EXPECT_EQ(b.admit(1002), BreakerDecision::kProbe);
  b.record_success(1003, /*probe=*/true);
  EXPECT_EQ(b.state(1004), BreakerState::kClosed);
}

TEST(CircuitBreaker, TransitionObserverSeesEveryEdge) {
  CircuitBreaker b(fast_breaker());
  std::vector<std::pair<BreakerState, BreakerState>> edges;
  b.on_transition([&](BreakerState from, BreakerState to, std::int64_t) {
    edges.emplace_back(from, to);
  });
  for (int i = 0; i < 3; ++i) b.record_failure(i);      // closed -> open
  EXPECT_EQ(b.admit(1500), BreakerDecision::kProbe);    // open -> half-open
  b.record_failure(1600, /*probe=*/true);               // half-open -> open
  EXPECT_EQ(b.admit(2700), BreakerDecision::kProbe);    // open -> half-open
  b.record_success(2800, /*probe=*/true);               // half-open -> closed
  const std::vector<std::pair<BreakerState, BreakerState>> want = {
      {BreakerState::kClosed, BreakerState::kOpen},
      {BreakerState::kOpen, BreakerState::kHalfOpen},
      {BreakerState::kHalfOpen, BreakerState::kOpen},
      {BreakerState::kOpen, BreakerState::kHalfOpen},
      {BreakerState::kHalfOpen, BreakerState::kClosed},
  };
  EXPECT_EQ(edges, want);
}

// --- fault injector ---------------------------------------------------------

TEST(FaultInjector, CounterWindowFiresDeterministically) {
  FaultInjector inj;
  FaultSchedule s;
  s.kind = FaultKind::kDelay;
  s.first_call = 2;
  s.period = 3;
  s.last_call = 8;
  s.delay_us = 123;
  inj.arm("p", s);
  std::vector<int> fired_at;
  for (int i = 0; i < 12; ++i) {
    if (auto a = inj.check("p")) {
      fired_at.push_back(i);
      EXPECT_EQ(a->kind, FaultKind::kDelay);
      EXPECT_EQ(a->delay_us, 123);
    }
  }
  EXPECT_EQ(fired_at, (std::vector<int>{2, 5, 8}));
  EXPECT_EQ(inj.calls("p"), 12);
  EXPECT_EQ(inj.fired("p"), 3);
  inj.disarm("p");
  EXPECT_FALSE(inj.check("p").has_value());
}

TEST(FaultInjector, SeededProbabilityIsAPreCommittedCoinSequence) {
  FaultSchedule s;
  s.kind = FaultKind::kDrop;
  s.probability = 0.3;
  s.seed = 42;
  FaultInjector a, b;
  a.arm("p", s);
  b.arm("q", s);
  int fired = 0;
  for (int i = 0; i < 64; ++i) {
    const bool fa = a.check("p").has_value();
    const bool fb = b.check("q").has_value();
    EXPECT_EQ(fa, fb) << "call " << i;
    EXPECT_EQ(fa, fault_coin(42, i, 0.3)) << "call " << i;
    fired += fa ? 1 : 0;
  }
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, 64);
}

// --- sharding ---------------------------------------------------------------

TEST(ClusterSharding, ReplicaSetsAreDeterministicDistinctAndCoverTheRing) {
  ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.replicas = 3;
  cfg.node_threads = 1;
  ClusterController cluster(cfg, PlanServiceConfig{});
  std::set<int> seen;
  for (std::uint64_t h = 1; h <= 64; ++h) {
    const std::uint64_t hash = h * 0x9e3779b97f4a7c15ull;
    const std::vector<int> a = cluster.replicas_for_hash(hash);
    const std::vector<int> b = cluster.replicas_for_hash(hash);
    EXPECT_EQ(a, b);
    ASSERT_EQ(a.size(), 3u);
    EXPECT_EQ(std::set<int>(a.begin(), a.end()).size(), 3u);  // distinct nodes
    for (int id : a) {
      EXPECT_GE(id, 0);
      EXPECT_LT(id, 4);
      seen.insert(id);
    }
  }
  EXPECT_EQ(seen.size(), 4u);  // virtual nodes spread keys over every node
}

// --- cluster integration ----------------------------------------------------

PipelineConfig cluster_pipeline_config() {
  PipelineConfig cfg;
  cfg.harness.profile_images = 8;
  cfg.harness.eval_images = 64;
  cfg.profiler.points = 5;
  return cfg;
}

PlanServiceConfig cluster_service_config() {
  PlanServiceConfig scfg;
  scfg.pipeline = cluster_pipeline_config();
  return scfg;
}

struct ClusterFixture {
  ZooModel model;
  std::unique_ptr<SyntheticImageDataset> dataset;
};

const ClusterFixture& fixture() {
  static ClusterFixture* f = [] {
    auto* fx = new ClusterFixture();
    ZooOptions zo;
    zo.num_classes = 10;
    zo.seed = 505;
    zo.data_seed = 8;
    zo.calibration_images = 8;
    fx->model = build_tiny_cnn(zo);
    DatasetConfig dc;
    dc.num_classes = 10;
    dc.height = 16;
    dc.width = 16;
    dc.seed = 8;
    fx->dataset = std::make_unique<SyntheticImageDataset>(dc);
    return fx;
  }();
  return *f;
}

// Patient controller configuration: sanitizer builds make cold allocation
// tails slow, so nothing may time out or hedge spuriously. Chaos tests
// tighten the knobs AFTER warming every replica.
ClusterConfig quiet_cluster_config() {
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.replicas = 2;
  cfg.node_threads = 2;
  cfg.attempt_timeout_us = 60'000'000;
  cfg.hedge_delay_us = 30'000'000;
  cfg.deadline_us = 240'000'000;
  return cfg;
}

ClusterConfig chaos_cluster_config() {
  ClusterConfig cfg = quiet_cluster_config();
  cfg.attempt_timeout_us = 400'000;
  cfg.hedge_delay_us = 30'000;
  cfg.max_attempts = 6;
  cfg.deadline_us = 60'000'000;
  cfg.breaker.failure_threshold = 1;  // a killed node gets few dispatches
  cfg.breaker.cooldown_us = 150'000;
  return cfg;
}

// Capacity weights 10^6 : 10^3 : 1 make the lower-id replica of any key
// outrank the other 1000-fold in weighted least-loaded selection, so it
// is the primary whatever queue and in-flight counts a loaded host leaves
// stale. Tests that stall or kill the primary target this node.
ClusterConfig pin_primary(ClusterConfig cfg) {
  cfg.node_weights = {1e6, 1e3, 1.0};
  return cfg;
}

int pinned_primary(const ClusterController& cluster, const PlanKey& key) {
  const std::vector<int> r = cluster.replicas_for_hash(key.net_hash);
  return *std::min_element(r.begin(), r.end());
}

PlanQuery query_for(const ClusterFixture& f, double target, bool energy) {
  PlanQuery q;
  q.accuracy_target = target;
  q.objective = energy ? objective_mac_energy(f.model.net, f.model.analyzed)
                       : objective_input_bits(f.model.net, f.model.analyzed);
  return q;
}

void expect_plan_identical(const PlanResult& a, const PlanResult& b) {
  // Exact equality on purpose: the convergence contract is byte-identical
  // plans, not merely close ones.
  EXPECT_EQ(a.alloc.bits, b.alloc.bits);
  EXPECT_EQ(a.alloc.xi, b.alloc.xi);
  EXPECT_EQ(a.alloc.deltas, b.alloc.deltas);
  EXPECT_EQ(a.alloc.formats, b.alloc.formats);
  EXPECT_EQ(a.sigma_used, b.sigma_used);
  EXPECT_EQ(a.objective_cost, b.objective_cost);
  EXPECT_EQ(a.effective_bits, b.effective_bits);
  EXPECT_EQ(plan_result_checksum(a), plan_result_checksum(b));
}

// Warms every replica's OWN PlanService for the given queries (bypassing
// the router), so chaos phases with tight timeouts only ever exercise the
// cheap memoized path on healthy nodes.
void warm_replicas(ClusterController& cluster, const PlanKey& key,
                   const std::vector<PlanQuery>& queries) {
  cluster.replicate_profile(key);
  for (int id : cluster.replicas_for_hash(key.net_hash))
    for (const PlanQuery& q : queries) cluster.node(id).service().plan(key, q);
}

TEST(Cluster, ServesByteIdenticalPlansToSingleServiceRun) {
  const ClusterFixture& f = fixture();
  // Baseline: one single-process PlanService, same configuration.
  PlanService baseline(cluster_service_config());
  const PlanKey bkey = baseline.register_network(f.model.net, f.model.analyzed, *f.dataset);
  const std::vector<PlanQuery> queries = {query_for(f, 0.02, false), query_for(f, 0.05, true)};
  std::vector<PlanResult> expected;
  for (const PlanQuery& q : queries) expected.push_back(baseline.plan(bkey, q));

  ClusterController cluster(quiet_cluster_config(), cluster_service_config());
  const PlanKey key = cluster.register_network(f.model.net, f.model.analyzed, *f.dataset);
  EXPECT_EQ(key, bkey);  // content addressing is process-independent
  EXPECT_GE(cluster.replicate_profile(key), 1);

  for (int round = 0; round < 2; ++round)
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const ClusterQueryResult r = cluster.plan(key, queries[i]);
      ASSERT_TRUE(r.ok) << r.error;
      expect_plan_identical(r.plan, expected[i]);
    }

  const ClusterStats s = cluster.stats();
  EXPECT_EQ(s.queries_ok, 4);
  EXPECT_EQ(s.queries_failed, 0);
  std::int64_t hits = 0, misses = 0, accepted = 0;
  for (const NodeStats& n : s.nodes) {
    hits += n.cache_hits;
    misses += n.cache_misses;
    accepted += n.bundles_accepted;
  }
  // Which replica serves each round is load/timing dependent, but every
  // response came off the verified node-local cache path exactly once.
  EXPECT_EQ(hits + misses, 4);
  EXPECT_GE(accepted, 1);  // replication seeded the non-primary replica
}

// Dispatches directly to one node (bypassing the router) and returns its
// response — the deterministic way to pin which node's cache serves.
ClusterResponse submit_and_wait(ClusterController& cluster, int node, const PlanKey& key,
                                const PlanQuery& q) {
  auto state = std::make_shared<ClusterQueryState>();
  auto d = std::make_shared<ClusterDispatch>();
  d->q = state;
  d->key = key;
  d->query = q;
  d->node = node;
  cluster.node(node).submit(d);
  state->wait_until_us(cluster_now_us() + 120'000'000);
  std::lock_guard<std::mutex> lk(state->mu);
  EXPECT_TRUE(state->done);
  return state->resp;
}

TEST(Cluster, PoisonedCacheEntriesAreDetectedAndRecomputedIdentically) {
  const ClusterFixture& f = fixture();
  ClusterController cluster(quiet_cluster_config(), cluster_service_config());
  const PlanKey key = cluster.register_network(f.model.net, f.model.analyzed, *f.dataset);
  const PlanQuery q = query_for(f, 0.02, false);

  const ClusterQueryResult r0 = cluster.plan(key, q);
  ASSERT_TRUE(r0.ok) << r0.error;
  // Pin one replica and make sure its node-local cache holds the plan.
  const int target = cluster.replicas_for_hash(key.net_hash).front();
  const ClusterResponse warm = submit_and_wait(cluster, target, key, q);
  ASSERT_TRUE(warm.ok) << warm.error;
  expect_plan_identical(warm.plan, r0.plan);

  // Flip a bit in that node's cached entry behind its back; the next read
  // must catch the checksum mismatch and recompute identically.
  ASSERT_TRUE(cluster.poison_cache(target, key, q));
  const ClusterResponse r1 = submit_and_wait(cluster, target, key, q);
  ASSERT_TRUE(r1.ok) << r1.error;
  expect_plan_identical(r1.plan, r0.plan);

  // Same corruption via the fault injector at the node seam: the data
  // fault poisons the (re-)cached entry, the same dispatch detects it.
  FaultSchedule s;
  s.kind = FaultKind::kSaturate;
  cluster.faults().arm(cluster.node(target).fault_point(), s);
  const ClusterResponse r2 = submit_and_wait(cluster, target, key, q);
  cluster.faults().disarm(cluster.node(target).fault_point());
  ASSERT_TRUE(r2.ok) << r2.error;
  expect_plan_identical(r2.plan, r0.plan);

  const NodeStats n = cluster.node(target).stats();
  EXPECT_EQ(n.poison_injected, 2);
  EXPECT_EQ(n.poison_rejected, 2);  // every flip was caught, none served
  EXPECT_GE(cluster.diagnostics().count(PipelineStage::kServe, DiagSeverity::kWarning), 2);
}

TEST(Cluster, StragglerIsHedgedAndFirstResponseWins) {
  const ClusterFixture& f = fixture();
  ClusterConfig cfg = pin_primary(quiet_cluster_config());
  cfg.hedge_delay_us = 25'000;  // hedge quickly; everything is pre-warmed
  ClusterController cluster(cfg, cluster_service_config());
  const PlanKey key = cluster.register_network(f.model.net, f.model.analyzed, *f.dataset);
  const PlanQuery q = query_for(f, 0.02, false);
  warm_replicas(cluster, key, {q});

  const ClusterQueryResult r0 = cluster.plan(key, q);
  ASSERT_TRUE(r0.ok) << r0.error;

  // Stall the pinned primary far past the hedge threshold; the hedge to
  // the other replica must win.
  const int primary = pinned_primary(cluster, key);
  FaultSchedule s;
  s.kind = FaultKind::kDelay;
  s.delay_us = 3'000'000;
  cluster.faults().arm(cluster.node(primary).fault_point(), s);
  const ClusterQueryResult r1 = cluster.plan(key, q);
  cluster.faults().disarm(cluster.node(primary).fault_point());

  ASSERT_TRUE(r1.ok) << r1.error;
  EXPECT_GE(r1.hedges, 1);
  EXPECT_TRUE(r1.hedge_won);
  EXPECT_NE(r1.node, primary);
  EXPECT_LT(r1.wall_ms, 2900.0);  // did not wait out the straggler
  expect_plan_identical(r1.plan, r0.plan);
  EXPECT_GE(cluster.stats().hedge_wins, 1);
}

TEST(Cluster, KilledNodeFailsOverTripsBreakerAndRecovers) {
  const ClusterFixture& f = fixture();
  ClusterController cluster(pin_primary(chaos_cluster_config()), cluster_service_config());
  const PlanKey key = cluster.register_network(f.model.net, f.model.analyzed, *f.dataset);
  const PlanQuery q = query_for(f, 0.02, false);
  warm_replicas(cluster, key, {q});
  const ClusterQueryResult r0 = cluster.plan(key, q);
  ASSERT_TRUE(r0.ok) << r0.error;
  // The pinned primary stays first choice while dead, so each query parks
  // a dispatch on it (a breaker failure once swept) and fails over by hedge.
  const int victim = pinned_primary(cluster, key);

  cluster.kill_node(victim);
  for (int i = 0; i < 6; ++i) {
    const ClusterQueryResult r = cluster.plan(key, q);
    ASSERT_TRUE(r.ok) << "query " << i << ": " << r.error;
    EXPECT_NE(r.node, victim);  // a killed node can never answer
    expect_plan_identical(r.plan, r0.plan);
  }

  // Let the victim's parked dispatch cross its attempt deadline, then
  // sweep: the timeout becomes a breaker failure and the breaker trips.
  std::this_thread::sleep_for(
      std::chrono::microseconds(cluster.config().attempt_timeout_us + 100'000));
  cluster.sweep_pending();
  EXPECT_NE(cluster.breaker(victim).state(cluster_now_us()), BreakerState::kClosed);
  EXPECT_GE(cluster.breaker(victim).counters().opened, 1);

  // Recovery: revive, wait out the cooldown, and keep querying until the
  // half-open probe succeeds and fully closes the breaker again.
  cluster.revive_node(victim);
  bool closed = false;
  for (int i = 0; i < 200 && !closed; ++i) {
    const ClusterQueryResult r = cluster.plan(key, q);
    ASSERT_TRUE(r.ok) << r.error;
    expect_plan_identical(r.plan, r0.plan);
    closed = cluster.breaker(victim).state(cluster_now_us()) == BreakerState::kClosed &&
             cluster.breaker(victim).counters().closed >= 1;
    if (!closed) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(closed) << "breaker never re-closed after revive";
  EXPECT_EQ(cluster.stats().queries_failed, 0);  // zero crashed queries throughout
}

TEST(Cluster, SeededChaosKillsEveryFewQueriesAndConvergesByteIdentical) {
  const ClusterFixture& f = fixture();
  ClusterController cluster(chaos_cluster_config(), cluster_service_config());
  const PlanKey key = cluster.register_network(f.model.net, f.model.analyzed, *f.dataset);
  const std::vector<PlanQuery> queries = {query_for(f, 0.02, false), query_for(f, 0.05, true)};
  warm_replicas(cluster, key, queries);
  std::vector<PlanResult> expected;
  for (const PlanQuery& q : queries) {
    const ClusterQueryResult r = cluster.plan(key, q);
    ASSERT_TRUE(r.ok) << r.error;
    expected.push_back(r.plan);
  }

  // Seeded schedule: every 4th query rotates which replica is dead (at
  // most one at a time, so a healthy replica always exists).
  const std::vector<int> reps = cluster.replicas_for_hash(key.net_hash);
  ASSERT_EQ(reps.size(), 2u);
  std::uint64_t rng = 0xc0ffee;
  int victim = -1;
  const auto next = [&rng] {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return rng >> 33;
  };
  for (int i = 0; i < 24; ++i) {
    if (i % 4 == 0) {
      if (victim >= 0) cluster.revive_node(victim);
      victim = reps[next() % reps.size()];
      cluster.kill_node(victim);
    }
    const ClusterQueryResult r = cluster.plan(key, queries[i % queries.size()]);
    ASSERT_TRUE(r.ok) << "query " << i << " (victim " << victim << "): " << r.error;
    EXPECT_NE(r.node, victim);
    expect_plan_identical(r.plan, expected[i % expected.size()]);
  }
  if (victim >= 0) cluster.revive_node(victim);

  const ClusterStats s = cluster.stats();
  EXPECT_EQ(s.queries_failed, 0);  // every query succeeded despite the churn
  EXPECT_EQ(s.queries_ok, 2 + 24);
}

TEST(Cluster, ExhaustedDeadlineReturnsExplicitDiagnosedFailure) {
  const ClusterFixture& f = fixture();
  ClusterConfig cfg = chaos_cluster_config();
  cfg.nodes = 2;
  cfg.replicas = 2;
  cfg.attempt_timeout_us = 60'000;
  cfg.hedge_delay_us = 10'000;
  cfg.deadline_us = 400'000;
  cfg.max_attempts = 3;
  ClusterController cluster(cfg, cluster_service_config());
  const PlanKey key = cluster.register_network(f.model.net, f.model.analyzed, *f.dataset);
  cluster.kill_node(0);
  cluster.kill_node(1);  // nobody left to answer

  const ClusterQueryResult r = cluster.plan(key, query_for(f, 0.02, false));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("exhausted its deadline"), std::string::npos) << r.error;
  EXPECT_GE(r.attempts, 1);
  EXPECT_GE(r.timeouts, 1);
  EXPECT_GE(cluster.diagnostics().count(PipelineStage::kServe, DiagSeverity::kError), 1);
  EXPECT_EQ(cluster.stats().queries_failed, 1);
  cluster.revive_node(0);
  cluster.revive_node(1);  // let the destructor drain cleanly
}

TEST(Cluster, UnknownKeyFailsExplicitlyWithoutCrashing) {
  ClusterConfig cfg = quiet_cluster_config();
  cfg.node_threads = 1;
  ClusterController cluster(cfg, cluster_service_config());
  PlanKey bogus;
  bogus.net_hash = 0xdeadbeef;
  bogus.config_digest = 0xfeedface;
  PlanQuery q;
  q.objective.name = "input_bits";
  q.objective.rho = {1, 1, 1};
  const ClusterQueryResult r = cluster.plan(bogus, q);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("unknown key"), std::string::npos) << r.error;
}

TEST(Cluster, CorruptReplicatedBundleIsRejectedIntactOneAccepted) {
  const ClusterFixture& f = fixture();
  ClusterController cluster(quiet_cluster_config(), cluster_service_config());
  const PlanKey key = cluster.register_network(f.model.net, f.model.analyzed, *f.dataset);
  const std::vector<int> reps = cluster.replicas_for_hash(key.net_hash);
  ASSERT_EQ(reps.size(), 2u);
  WorkerNode& primary = cluster.node(reps[0]);
  WorkerNode& secondary = cluster.node(reps[1]);
  primary.service().ensure_profile(key);
  const SealedProfile sealed = seal_profile(primary.service().export_profile(key));

  // Bit-flipped payload: the seal no longer matches.
  SealedProfile corrupt_payload = sealed;
  ASSERT_FALSE(corrupt_payload.bundle.ranges.empty());
  corrupt_payload.bundle.ranges[0] += 1.0;
  EXPECT_FALSE(secondary.seed_profile(key, corrupt_payload));

  // Bit-flipped checksum: same rejection.
  SealedProfile corrupt_seal = sealed;
  corrupt_seal.checksum ^= 1;
  EXPECT_FALSE(secondary.seed_profile(key, corrupt_seal));

  EXPECT_EQ(secondary.stats().bundles_rejected, 2);
  EXPECT_EQ(secondary.stats().bundles_accepted, 0);
  EXPECT_GE(cluster.diagnostics().count(PipelineStage::kServe, DiagSeverity::kError), 2);

  // The intact bundle is accepted, and the seeded replica then serves
  // plans identical to the primary's.
  EXPECT_TRUE(secondary.seed_profile(key, sealed));
  EXPECT_EQ(secondary.stats().bundles_accepted, 1);
  const PlanQuery q = query_for(f, 0.02, false);
  const PlanResult a = primary.service().plan(key, q);
  const PlanResult b = secondary.service().plan(key, q);
  expect_plan_identical(a, b);
}

}  // namespace
}  // namespace mupod

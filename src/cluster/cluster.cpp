#include "cluster/cluster.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <sstream>
#include <utility>

#include "core/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"

namespace mupod {

namespace {

// FNV-1a, same scheme as the PlanService content addressing: collisions
// only risk a gratuitous recompute (a checksum "mismatch" cannot happen by
// collision — only a collision on a *corrupted* value could mask one, at
// 2^-64 odds per flip).
struct Fnv1a {
  std::uint64_t h = 14695981039346656037ull;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void i32(int v) { i64(v); }
  void d(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
};

void bump(const char* name, std::int64_t n = 1) {
  if (metrics_enabled()) metrics().counter(name).add(n);
}

std::uint64_t splitmix(std::uint64_t* s) {
  std::uint64_t z = (*s += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double u01(std::uint64_t* s) { return static_cast<double>(splitmix(s) >> 11) * 0x1.0p-53; }

}  // namespace

std::chrono::steady_clock::time_point cluster_origin() { return mono_origin(); }

std::int64_t cluster_now_us() { return mono_now_us(); }

SealedProfile seal_profile(const ProfileBundle& bundle) {
  SealedProfile s;
  s.bundle = bundle;
  Fnv1a f;
  f.str(serialize_profile(bundle));
  s.checksum = f.h;
  return s;
}

std::uint64_t plan_result_checksum(const PlanResult& r) {
  Fnv1a f;
  f.u64(r.key.net_hash);
  f.u64(r.key.config_digest);
  f.d(r.query.accuracy_target);
  f.i32(static_cast<int>(r.query.solver));
  f.str(r.query.objective.name);
  for (std::int64_t rho : r.query.objective.rho) f.i64(rho);
  for (int b : r.alloc.bits) f.i32(b);
  for (double x : r.alloc.xi) f.d(x);
  for (double d : r.alloc.deltas) f.d(d);
  for (const FixedPointFormat& fmt : r.alloc.formats) {
    f.i32(fmt.integer_bits);
    f.i32(fmt.fraction_bits);
  }
  f.d(r.sigma_searched);
  f.d(r.sigma_used);
  f.i32(r.refinements);
  f.d(r.float_accuracy);
  f.d(r.validated_accuracy);
  f.d(r.accuracy_loss);
  f.i64(r.objective_cost);
  f.d(r.effective_bits);
  f.d(r.energy);
  f.d(r.sim_cycles);
  f.d(r.sim_speedup);
  return f.h;
}

std::string cluster_query_key(const PlanKey& key, const PlanQuery& query) {
  Fnv1a rho;
  for (std::int64_t r : query.objective.rho) rho.i64(r);
  std::ostringstream os;
  os << key.to_string() << '|' << std::hex
     << std::bit_cast<std::uint64_t>(query.accuracy_target) << '|'
     << static_cast<int>(query.solver) << '|' << query.objective.name << '|' << rho.h;
  return os.str();
}

// --- WorkerNode ------------------------------------------------------------

WorkerNode::WorkerNode(int id, const ClusterConfig& cfg, const PlanServiceConfig& service_cfg,
                       FaultInjector* faults, CircuitBreaker* breaker, DiagnosticSink* diag)
    : id_(id),
      point_("cluster.node" + std::to_string(id)),
      cfg_(cfg),
      service_(service_cfg),
      faults_(faults),
      breaker_(breaker),
      diag_(diag) {}

WorkerNode::~WorkerNode() { stop(); }

PlanKey WorkerNode::register_network(const Network& net, std::vector<int> analyzed,
                                     const SyntheticImageDataset& dataset) {
  return service_.register_network(net, std::move(analyzed), dataset);
}

void WorkerNode::start() {
  std::lock_guard<std::mutex> lk(qmu_);
  if (!threads_.empty()) return;
  const int n = std::max(cfg_.node_threads, 1);
  threads_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) threads_.emplace_back([this] { run_worker(); });
}

void WorkerNode::stop() {
  {
    std::lock_guard<std::mutex> lk(qmu_);
    if (threads_.empty()) return;
    stop_ = true;
  }
  qcv_.notify_all();
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  stop_ = false;
}

void WorkerNode::kill() {
  killed_.store(true, std::memory_order_relaxed);
  qcv_.notify_all();
}

void WorkerNode::revive() {
  killed_.store(false, std::memory_order_relaxed);
  qcv_.notify_all();
}

void WorkerNode::submit(std::shared_ptr<ClusterDispatch> d) {
  {
    std::lock_guard<std::mutex> lk(qmu_);
    queue_.push_back(std::move(d));
  }
  // notify_all: a thread stalled by a kDelay fault also waits on qcv_ and
  // would swallow a notify_one meant for an idle worker.
  qcv_.notify_all();
}

int WorkerNode::load() const {
  int queued;
  {
    std::lock_guard<std::mutex> lk(qmu_);
    queued = static_cast<int>(queue_.size());
  }
  return queued + inflight_.load(std::memory_order_relaxed);
}

void WorkerNode::run_worker() {
  for (;;) {
    std::shared_ptr<ClusterDispatch> d;
    {
      std::unique_lock<std::mutex> lk(qmu_);
      qcv_.wait(lk, [&] {
        return stop_ || (!queue_.empty() && !killed_.load(std::memory_order_relaxed));
      });
      if (stop_) return;
      d = std::move(queue_.front());
      queue_.pop_front();
    }
    inflight_.fetch_add(1, std::memory_order_relaxed);
    execute(d);
    inflight_.fetch_sub(1, std::memory_order_relaxed);
  }
}

bool WorkerNode::poison_cache(const PlanKey& key, const PlanQuery& query) {
  std::lock_guard<std::mutex> lk(cache_mu_);
  auto it = cache_.find(cluster_query_key(key, query));
  if (it == cache_.end()) return false;
  PlanResult& p = it->second.plan;
  // One flipped bit, as a cosmic ray (or a bad DIMM) would deliver it. The
  // stored checksum is left stale on purpose: detection is the contract.
  if (!p.alloc.formats.empty())
    p.alloc.formats[0].fraction_bits ^= 1;
  else
    p.objective_cost ^= 1;
  poison_injected_.fetch_add(1, std::memory_order_relaxed);
  bump("cluster.poison.injected");
  return true;
}

bool WorkerNode::seed_profile(const PlanKey& key, const SealedProfile& sealed) {
  const SealedProfile check = seal_profile(sealed.bundle);
  if (check.checksum != sealed.checksum) {
    bundles_rejected_.fetch_add(1, std::memory_order_relaxed);
    bump("cluster.replicate.rejected");
    diag_report(diag_, DiagSeverity::kError, PipelineStage::kServe, -1,
                "node " + std::to_string(id_) + " rejected a replicated profile bundle for " +
                    key.to_string() + ": sealed checksum mismatch (corrupted in transit)",
                "bundle discarded; the profile will be re-measured locally");
    return false;
  }
  // load_profile re-verifies the network content hash and rejects stale or
  // mismatched bundles with its own diagnostics.
  const bool ok = service_.load_profile(key, sealed.bundle);
  if (ok) {
    bundles_accepted_.fetch_add(1, std::memory_order_relaxed);
    bump("cluster.replicate.accepted");
  }
  return ok;
}

void WorkerNode::execute(const std::shared_ptr<ClusterDispatch>& d) {
  if (d->q->finished()) return;  // settled (or cancelled) while queued

  // Install the dispatch's trace context for the duration: the attempt
  // span becomes a child of the query, and every PlanService stage span
  // under service_.plan() chains off the attempt automatically.
  TraceContextScope tscope(d->ctx);
  ScopedSpan attempt_span("cluster.attempt", "cluster");
  attempt_span.arg("node", id_);
  attempt_span.arg("attempt", d->attempt);
  attempt_span.arg("hedge", d->hedge ? 1 : 0);
  trace_flow('t', "cluster.query", d->ctx);

  if (faults_ != nullptr) {
    if (auto a = faults_->check(point_)) {
      switch (a->kind) {
        case FaultKind::kDrop:
          // Unresponsive node: no reply ever leaves. The router's attempt
          // timeout resolves this dispatch as a breaker failure.
          dropped_.fetch_add(1, std::memory_order_relaxed);
          bump("cluster.node.dropped");
          return;
        case FaultKind::kDelay: {
          delayed_.fetch_add(1, std::memory_order_relaxed);
          bump("cluster.node.delayed");
          // A straggler, not a hang: stop() cancels the stall, and the
          // stalled dispatch is then dropped like a dead node's.
          std::unique_lock<std::mutex> lk(qmu_);
          if (qcv_.wait_for(lk, std::chrono::microseconds(a->delay_us), [&] { return stop_; }))
            return;
          break;
        }
        default:
          // Data fault: bit-flip this query's cached entry (when present);
          // the checksum verification below must catch it.
          poison_cache(d->key, d->query);
          break;
      }
    }
  }

  ClusterResponse resp;
  resp.node = id_;
  resp.from_hedge = d->hedge;
  const std::string ckey = cluster_query_key(d->key, d->query);
  bool poison_detected = false;
  {
    std::lock_guard<std::mutex> lk(cache_mu_);
    auto it = cache_.find(ckey);
    if (it != cache_.end()) {
      if (plan_result_checksum(it->second.plan) == it->second.checksum) {
        resp.plan = it->second.plan;
        resp.ok = true;
        cache_hits_.fetch_add(1, std::memory_order_relaxed);
      } else {
        // A corrupted plan must never reach a device: drop the entry and
        // recompute from the (content-addressed, deterministic) service.
        cache_.erase(it);
        poison_rejected_.fetch_add(1, std::memory_order_relaxed);
        poison_detected = true;
      }
    }
  }
  if (poison_detected) {
    bump("cluster.poison.detected");
    diag_report(diag_, DiagSeverity::kWarning, PipelineStage::kServe, -1,
                "node " + std::to_string(id_) + " caught a corrupted cached plan for " + ckey +
                    " (checksum mismatch)",
                "entry discarded; plan recomputed from the service stages");
  }
  if (!resp.ok) {
    try {
      resp.plan = service_.plan(d->key, d->query);
      resp.ok = true;
      cache_misses_.fetch_add(1, std::memory_order_relaxed);
      bump("cluster.cache.misses");
      CachedPlan c;
      c.plan = resp.plan;
      c.checksum = plan_result_checksum(c.plan);
      std::lock_guard<std::mutex> lk(cache_mu_);
      cache_.insert_or_assign(ckey, std::move(c));
    } catch (const std::exception& ex) {
      resp.ok = false;
      resp.error = "node " + std::to_string(id_) + ": " + ex.what();
    }
  } else {
    bump("cluster.cache.hits");
  }

  if (killed_.load(std::memory_order_relaxed)) {
    // Crashed before the reply left: from the router's side this dispatch
    // is indistinguishable from a drop.
    dropped_.fetch_add(1, std::memory_order_relaxed);
    bump("cluster.node.dropped");
    return;
  }

  const bool ok = resp.ok;
  bool posted = false;
  bool lost_to_winner = false;
  {
    std::lock_guard<std::mutex> lk(d->q->mu);
    if (!d->q->done && !d->q->cancelled.load(std::memory_order_relaxed)) {
      d->q->resp = std::move(resp);
      d->q->done = true;
      posted = true;
    } else {
      lost_to_winner = d->q->done;
    }
  }
  if (posted) d->q->cv.notify_all();
  if (!posted && lost_to_winner && ok) {
    hedge_losses_.fetch_add(1, std::memory_order_relaxed);
    bump("cluster.hedge_losses");
    trace_async('n', "cluster.hedge_lost", d->ctx, "node", id_);
  }
  d->completed.store(true, std::memory_order_release);
  if (!d->breaker_resolved.exchange(true, std::memory_order_acq_rel)) {
    const std::int64_t now = cluster_now_us();
    if (ok)
      breaker_->record_success(now, d->probe);
    else
      breaker_->record_failure(now, d->probe);
  }
  if (ok)
    served_.fetch_add(1, std::memory_order_relaxed);
  else
    errors_.fetch_add(1, std::memory_order_relaxed);
}

NodeStats WorkerNode::stats() const {
  NodeStats s;
  s.id = id_;
  s.killed = killed_.load(std::memory_order_relaxed);
  s.load = load();
  s.served = served_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.hedge_losses = hedge_losses_.load(std::memory_order_relaxed);
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  s.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  s.poison_injected = poison_injected_.load(std::memory_order_relaxed);
  s.poison_rejected = poison_rejected_.load(std::memory_order_relaxed);
  s.bundles_accepted = bundles_accepted_.load(std::memory_order_relaxed);
  s.bundles_rejected = bundles_rejected_.load(std::memory_order_relaxed);
  s.dropped = dropped_.load(std::memory_order_relaxed);
  s.delayed = delayed_.load(std::memory_order_relaxed);
  if (breaker_ != nullptr) {
    s.breaker = breaker_->counters();
    s.breaker_state = breaker_->state(cluster_now_us());
  }
  return s;
}

// --- ClusterController -----------------------------------------------------

ClusterController::ClusterController(ClusterConfig cfg, PlanServiceConfig service_cfg)
    : cfg_(std::move(cfg)) {
  cfg_.nodes = std::max(cfg_.nodes, 1);
  cfg_.replicas = std::clamp(cfg_.replicas, 1, cfg_.nodes);
  cfg_.virtual_nodes = std::max(cfg_.virtual_nodes, 1);
  cfg_.max_attempts = std::max(cfg_.max_attempts, 1);

  breakers_.reserve(static_cast<std::size_t>(cfg_.nodes));
  nodes_.reserve(static_cast<std::size_t>(cfg_.nodes));
  for (int i = 0; i < cfg_.nodes; ++i) {
    breakers_.push_back(std::make_unique<CircuitBreaker>(cfg_.breaker));
    breakers_.back()->on_transition([this, i](BreakerState from, BreakerState to, std::int64_t) {
      if (to == BreakerState::kOpen) {
        bump(from == BreakerState::kHalfOpen ? "cluster.breaker.reopened"
                                             : "cluster.breaker.opened");
        diag_.report(DiagSeverity::kWarning, PipelineStage::kServe, -1,
                     "node " + std::to_string(i) + " circuit breaker " +
                         breaker_state_name(from) + " -> open",
                     "queries fast-fail over to the other replicas until a probe succeeds");
        // A breaker opening is an incident by definition: capture the
        // recent request records + correlated spans while they are hot.
        if (flight_recording_enabled())
          flight_recorder().incident("breaker_open",
                                     "node " + std::to_string(i) + " circuit breaker " +
                                         breaker_state_name(from) + " -> open");
      } else if (to == BreakerState::kClosed) {
        bump("cluster.breaker.closed");
        diag_.report(DiagSeverity::kInfo, PipelineStage::kServe, -1,
                     "node " + std::to_string(i) + " circuit breaker closed (probe succeeded)",
                     "node back in rotation");
      } else {
        bump("cluster.breaker.half_open");
      }
    });
  }
  for (int i = 0; i < cfg_.nodes; ++i)
    nodes_.push_back(std::make_unique<WorkerNode>(i, cfg_, service_cfg, &faults_,
                                                  breakers_[static_cast<std::size_t>(i)].get(),
                                                  &diag_));

  // Consistent-hash ring: virtual_nodes points per node, FNV over
  // (node, replica-point). Fixed for the controller's lifetime.
  ring_.reserve(static_cast<std::size_t>(cfg_.nodes * cfg_.virtual_nodes));
  for (int i = 0; i < cfg_.nodes; ++i) {
    for (int v = 0; v < cfg_.virtual_nodes; ++v) {
      Fnv1a f;
      f.i32(i);
      f.i32(v);
      ring_.emplace_back(f.h, i);
    }
  }
  std::sort(ring_.begin(), ring_.end());

  for (auto& n : nodes_) n->start();
}

ClusterController::~ClusterController() {
  for (auto& n : nodes_) n->stop();
}

PlanKey ClusterController::register_network(const Network& net, std::vector<int> analyzed,
                                            const SyntheticImageDataset& dataset) {
  PlanKey key;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const PlanKey k = nodes_[i]->register_network(net, analyzed, dataset);
    if (i == 0)
      key = k;
    else
      assert(k == key);  // same content + same config => same address everywhere
  }
  return key;
}

std::vector<int> ClusterController::replicas_for_hash(std::uint64_t h) const {
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(cfg_.replicas));
  auto it = std::lower_bound(ring_.begin(), ring_.end(), std::make_pair(h, -1));
  for (std::size_t steps = 0;
       steps < ring_.size() && out.size() < static_cast<std::size_t>(cfg_.replicas); ++steps) {
    if (it == ring_.end()) it = ring_.begin();
    if (std::find(out.begin(), out.end(), it->second) == out.end()) out.push_back(it->second);
    ++it;
  }
  return out;
}

double ClusterController::weight(int id) const {
  const auto i = static_cast<std::size_t>(id);
  if (i < cfg_.node_weights.size() && cfg_.node_weights[i] > 0.0) return cfg_.node_weights[i];
  return 1.0;
}

ClusterController::Candidate ClusterController::pick(const std::vector<int>& replicas,
                                                     const std::vector<int>& exclude,
                                                     std::int64_t now_us, int* rejected) {
  struct Scored {
    double score;
    int node;
  };
  std::vector<Scored> order;
  order.reserve(replicas.size());
  for (int id : replicas) {
    if (std::find(exclude.begin(), exclude.end(), id) != exclude.end()) continue;
    const double load = nodes_[static_cast<std::size_t>(id)]->load() + 1.0;
    order.push_back({load / weight(id), id});
  }
  std::sort(order.begin(), order.end(), [](const Scored& a, const Scored& b) {
    return a.score != b.score ? a.score < b.score : a.node < b.node;
  });
  for (const Scored& s : order) {
    const BreakerDecision d = breakers_[static_cast<std::size_t>(s.node)]->admit(now_us);
    if (d == BreakerDecision::kReject) {
      ++*rejected;
      continue;
    }
    return Candidate{s.node, d == BreakerDecision::kProbe};
  }
  return Candidate{};
}

ClusterQueryResult ClusterController::plan(const PlanKey& key, const PlanQuery& query) {
  return plan(key, query, cfg_.deadline_us);
}

ClusterQueryResult ClusterController::plan(const PlanKey& key, const PlanQuery& query,
                                           std::int64_t deadline_us) {
  const std::int64_t t0 = cluster_now_us();
  sweep_pending(t0);
  const std::int64_t deadline = t0 + std::max<std::int64_t>(deadline_us, 1);
  auto q = std::make_shared<ClusterQueryState>();
  const std::vector<int> replicas = replicas_for_hash(key.net_hash);
  const std::uint64_t qid = query_seq_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t rng = cfg_.seed ^ (qid * 0x9e3779b97f4a7c15ull) ^ key.net_hash;

  // Root of the query's trace: the async lane opens here and closes when
  // the query settles; each dispatch carries a child context to its node.
  const TraceContext root = mint_trace();
  trace_async('b', "cluster.query", root, "query", static_cast<std::int64_t>(qid));
  trace_flow('s', "cluster.query", root);
  TraceContextScope trace_scope(root);
  ScopedSpan query_span("cluster.query", "cluster");
  query_span.arg("query", static_cast<std::int64_t>(qid));

  ClusterQueryResult out;
  // Each dispatch paired with its attempt deadline, so a straggler that
  // outlives the query can still be timeout-resolved by a later sweep.
  std::vector<std::pair<std::shared_ptr<ClusterDispatch>, std::int64_t>> outstanding;

  const auto backoff_until = [&](std::int64_t now) {
    const int shift = std::min(out.attempts - 1, 10);
    const std::int64_t base = cfg_.backoff_base_us << shift;
    const auto jitter = static_cast<std::int64_t>(static_cast<double>(base) *
                                                  cfg_.backoff_jitter * u01(&rng));
    return std::min(now + base + jitter, deadline);
  };

  while (out.attempts < cfg_.max_attempts && !q->is_done()) {
    std::int64_t now = cluster_now_us();
    if (now >= deadline) break;
    ++out.attempts;

    std::vector<int> exclude;
    for (const auto& [d, dl] : outstanding)
      if (!d->completed.load(std::memory_order_acquire)) exclude.push_back(d->node);
    int rejected = 0;
    const Candidate primary = pick(replicas, exclude, now, &rejected);
    out.rejected += rejected;
    if (primary.node < 0) {
      // No replica admitted right now; back off (a late response or a
      // breaker cooldown can change that).
      if (q->wait_until_us(backoff_until(now))) break;
      continue;
    }

    const std::int64_t attempt_deadline = std::min(now + cfg_.attempt_timeout_us, deadline);
    auto d = std::make_shared<ClusterDispatch>();
    d->q = q;
    d->key = key;
    d->query = query;
    d->node = primary.node;
    d->attempt = out.attempts;
    d->ctx = child_span(current_trace_context());
    d->probe = primary.probe;
    trace_async('n', "cluster.dispatch", d->ctx, "node", primary.node);
    outstanding.emplace_back(d, attempt_deadline);
    nodes_[static_cast<std::size_t>(primary.node)]->submit(d);

    // Hedge: when the primary stalls past hedge_delay_us, race a second
    // admitted replica against it; first response wins.
    if (cfg_.hedging && cfg_.hedge_delay_us >= 0 &&
        cfg_.hedge_delay_us < cfg_.attempt_timeout_us) {
      if (!q->wait_until_us(std::min(now + cfg_.hedge_delay_us, attempt_deadline))) {
        std::vector<int> hexclude = exclude;
        hexclude.push_back(primary.node);
        int hrejected = 0;
        const Candidate hedge = pick(replicas, hexclude, cluster_now_us(), &hrejected);
        out.rejected += hrejected;
        if (hedge.node >= 0) {
          auto hd = std::make_shared<ClusterDispatch>();
          hd->q = q;
          hd->key = key;
          hd->query = query;
          hd->node = hedge.node;
          hd->attempt = out.attempts;
          hd->ctx = child_span(current_trace_context());
          hd->probe = hedge.probe;
          hd->hedge = true;
          trace_async('n', "cluster.hedge", hd->ctx, "node", hedge.node);
          outstanding.emplace_back(hd, attempt_deadline);
          nodes_[static_cast<std::size_t>(hedge.node)]->submit(hd);
          ++out.hedges;
          bump("cluster.hedges");
        }
      }
    }

    if (q->wait_until_us(attempt_deadline)) break;

    // Attempt expired: every unanswered dispatch is a breaker failure for
    // its node (first resolver wins — a late node-side completion that
    // already resolved it is left alone).
    const std::int64_t tnow = cluster_now_us();
    for (const auto& [od, dl] : outstanding) {
      if (od->completed.load(std::memory_order_acquire)) continue;
      if (!od->breaker_resolved.exchange(true, std::memory_order_acq_rel)) {
        breakers_[static_cast<std::size_t>(od->node)]->record_failure(tnow, od->probe);
        ++out.timeouts;
        bump("cluster.timeouts");
      }
    }
    outstanding.clear();
    if (out.attempts < cfg_.max_attempts && !q->wait_until_us(backoff_until(tnow))) continue;
    break;
  }

  // Park any dispatch the query no longer waits for (typically the hedge
  // race's loser against a dead node); a later sweep turns it into a
  // breaker failure once its attempt deadline passes.
  if (!outstanding.empty()) {
    std::lock_guard<std::mutex> lk(pending_mu_);
    for (auto& od : outstanding)
      if (!od.first->completed.load(std::memory_order_acquire) &&
          !od.first->breaker_resolved.load(std::memory_order_acquire))
        pending_.push_back(std::move(od));
  }

  bool done;
  {
    std::lock_guard<std::mutex> lk(q->mu);
    done = q->done;
    // Settled from the router's side either way: stale queued dispatches
    // and hedge losers observe this and discard their work.
    q->cancelled.store(true, std::memory_order_relaxed);
    if (done) {
      out.ok = q->resp.ok;
      out.node = q->resp.node;
      out.error = q->resp.error;
      out.hedge_won = q->resp.from_hedge;
      out.plan = std::move(q->resp.plan);
    }
  }
  const std::int64_t t_done = cluster_now_us();
  out.wall_ms = static_cast<double>(t_done - t0) / 1000.0;
  out.trace_id = root.trace_id;
  if (!done) {
    std::ostringstream os;
    os << "cluster: query on " << key.to_string() << " exhausted its deadline ("
       << (deadline - t0) / 1000 << " ms) after " << out.attempts << " attempt(s): "
       << out.timeouts << " timeout(s), " << out.rejected << " breaker rejection(s), "
       << out.hedges << " hedge(s)";
    out.ok = false;
    out.error = os.str();
    diag_.report(DiagSeverity::kError, PipelineStage::kServe, -1, out.error,
                 "no plan was served; the caller may retry with a longer deadline");
  }

  if (out.ok) {
    bump("cluster.queries.ok");
    queries_ok_.fetch_add(1, std::memory_order_relaxed);
    if (out.hedge_won) {
      bump("cluster.hedge_wins");
      hedge_wins_.fetch_add(1, std::memory_order_relaxed);
    }
    if (metrics_enabled())
      metrics()
          .histogram("cluster.query.ms",
                     {0.1, 0.25, 0.5, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000})
          .record(out.wall_ms);
  } else {
    bump("cluster.queries.failed");
    queries_failed_.fetch_add(1, std::memory_order_relaxed);
  }
  const std::int64_t retries = std::max(out.attempts - 1, 0);
  bump("cluster.retries", retries);
  attempts_.fetch_add(out.attempts, std::memory_order_relaxed);
  retries_.fetch_add(retries, std::memory_order_relaxed);
  hedges_.fetch_add(out.hedges, std::memory_order_relaxed);
  timeouts_.fetch_add(out.timeouts, std::memory_order_relaxed);
  breaker_rejections_.fetch_add(out.rejected, std::memory_order_relaxed);

  if (out.hedge_won) trace_async('n', "cluster.hedge_won", root, "node", out.node);
  trace_async('e', "cluster.query", root, "ok", out.ok ? 1 : 0);
  trace_flow('f', "cluster.query", root);
  if (flight_recording_enabled()) {
    RequestRecord rec;
    rec.trace_id = root.trace_id;
    rec.request_id = qid;
    rec.source = "cluster";
    rec.status = out.ok ? "ok" : (done ? "error" : "deadline_exhausted");
    rec.ok = out.ok;
    rec.deadline_hit = !done;  // the query ran out its overall deadline
    rec.exec_us = t_done - t0;
    rec.total_us = t_done - t0;
    rec.node_id = out.node;
    rec.retries = static_cast<int>(retries);
    rec.hedges = out.hedges;
    rec.t_us = t_done;
    flight_recorder().record(rec);
  }
  return out;
}

void ClusterController::sweep_pending() { sweep_pending(cluster_now_us()); }

void ClusterController::sweep_pending(std::int64_t now_us) {
  std::vector<std::pair<std::shared_ptr<ClusterDispatch>, std::int64_t>> expired;
  {
    std::lock_guard<std::mutex> lk(pending_mu_);
    std::vector<std::pair<std::shared_ptr<ClusterDispatch>, std::int64_t>> keep;
    keep.reserve(pending_.size());
    for (auto& p : pending_) {
      if (p.first->completed.load(std::memory_order_acquire)) continue;  // node resolved it
      if (now_us >= p.second)
        expired.push_back(std::move(p));
      else
        keep.push_back(std::move(p));
    }
    pending_.swap(keep);
  }
  for (const auto& [d, dl] : expired) {
    if (!d->breaker_resolved.exchange(true, std::memory_order_acq_rel)) {
      breakers_[static_cast<std::size_t>(d->node)]->record_failure(now_us, d->probe);
      timeouts_.fetch_add(1, std::memory_order_relaxed);
      bump("cluster.timeouts");
    }
  }
}

int ClusterController::replicate_profile(const PlanKey& key) {
  const std::vector<int> reps = replicas_for_hash(key.net_hash);
  WorkerNode& primary = node(reps.front());
  primary.service().ensure_profile(key);
  const SealedProfile sealed = seal_profile(primary.service().export_profile(key));
  int accepted = 0;
  for (std::size_t i = 1; i < reps.size(); ++i)
    accepted += node(reps[i]).seed_profile(key, sealed) ? 1 : 0;
  return accepted;
}

int ClusterController::seed_profile(const PlanKey& key, const SealedProfile& sealed) {
  int accepted = 0;
  for (int id : replicas_for_hash(key.net_hash)) accepted += node(id).seed_profile(key, sealed);
  return accepted;
}

void ClusterController::kill_node(int id) {
  node(id).kill();
  bump("cluster.node.kills");
  diag_.report(DiagSeverity::kWarning, PipelineStage::kServe, -1,
               "node " + std::to_string(id) + " killed (unresponsive; replies suppressed)",
               "queries re-route to the other replicas; breaker opens after timeouts");
}

void ClusterController::revive_node(int id) {
  node(id).revive();
  bump("cluster.node.revives");
  diag_.report(DiagSeverity::kInfo, PipelineStage::kServe, -1,
               "node " + std::to_string(id) + " revived",
               "half-open probe re-admits it once its breaker cools down");
}

bool ClusterController::poison_cache(int id, const PlanKey& key, const PlanQuery& query) {
  return node(id).poison_cache(key, query);
}

ClusterStats ClusterController::stats() const {
  ClusterStats s;
  s.queries_ok = queries_ok_.load(std::memory_order_relaxed);
  s.queries_failed = queries_failed_.load(std::memory_order_relaxed);
  s.attempts = attempts_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.hedges = hedges_.load(std::memory_order_relaxed);
  s.hedge_wins = hedge_wins_.load(std::memory_order_relaxed);
  s.timeouts = timeouts_.load(std::memory_order_relaxed);
  s.breaker_rejections = breaker_rejections_.load(std::memory_order_relaxed);
  s.nodes.reserve(nodes_.size());
  for (const auto& n : nodes_) s.nodes.push_back(n->stats());
  return s;
}

}  // namespace mupod

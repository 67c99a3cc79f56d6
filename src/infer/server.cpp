#include "infer/server.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "core/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/stage_scope.hpp"
#include "obs/telemetry.hpp"

namespace mupod {

namespace {

// All infer.* instruments, resolved once (registry handles are stable for
// the process lifetime). Stats atomics are the source of truth; these are
// the operator-visible mirror, bumped only when metrics are enabled.
struct InferMetrics {
  Counter& submitted = metrics().counter("infer.requests.submitted");
  Counter& ok = metrics().counter("infer.requests.ok");
  Counter& failed = metrics().counter("infer.requests.failed");
  Counter& shutdown = metrics().counter("infer.requests.shutdown");
  Counter& admission_rejected = metrics().counter("infer.admission.rejected");
  Counter& deadline_rejected = metrics().counter("infer.deadline.rejected");
  Counter& deadline_expired_queued = metrics().counter("infer.deadline.expired_queued");
  Counter& deadline_exceeded = metrics().counter("infer.deadline.exceeded");
  Counter& batches = metrics().counter("infer.batches");
  Counter& batch_rows = metrics().counter("infer.batch.rows");
  Counter& size_flushes = metrics().counter("infer.batch.size_flushes");
  Counter& timeout_flushes = metrics().counter("infer.batch.timeout_flushes");
  Counter& drain_flushes = metrics().counter("infer.batch.drain_flushes");
  Counter& plan_swaps = metrics().counter("infer.plan.swaps");
  Gauge& queue_depth = metrics().gauge("infer.queue.depth");
  HistogramMetric& batch_size = metrics().histogram(
      "infer.batch.size", {1, 2, 4, 8, 16, 32, 64, 128});
  HistogramMetric& latency_ms = metrics().histogram(
      "infer.latency.ms",
      {0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000});
  HistogramMetric& queue_ms = metrics().histogram(
      "infer.queue.ms",
      {0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000});
};

InferMetrics& im() {
  static InferMetrics* m = new InferMetrics();  // leaked, like the registry
  return *m;
}

int argmax_row(const float* row, std::int64_t n) {
  int best = 0;
  for (std::int64_t i = 1; i < n; ++i)
    if (row[i] > row[best]) best = static_cast<int>(i);
  return best;
}

}  // namespace

const char* infer_status_name(InferStatus s) {
  switch (s) {
    case InferStatus::kOk: return "ok";
    case InferStatus::kRejectedQueueFull: return "rejected_queue_full";
    case InferStatus::kRejectedDeadline: return "rejected_deadline";
    case InferStatus::kExpiredInQueue: return "expired_in_queue";
    case InferStatus::kDeadlineExceeded: return "deadline_exceeded";
    case InferStatus::kShutdown: return "shutdown";
    case InferStatus::kError: return "error";
  }
  return "?";
}

const char* infer_backend_name(InferBackend b) {
  switch (b) {
    case InferBackend::kFloat: return "float";
    case InferBackend::kInteger: return "integer";
  }
  return "?";
}

InferenceServer::InferenceServer(InferenceServerConfig cfg)
    : cfg_(cfg), policy_(cfg.batch) {
  cfg_.max_queue = std::max<std::size_t>(cfg_.max_queue, 1);
}

InferenceServer::~InferenceServer() { stop(); }

void InferenceServer::register_model(const std::string& name, const Network& net,
                                     std::vector<int> analyzed) {
  if (!net.finalized()) throw std::invalid_argument("infer: network not finalized: " + name);
  std::unique_lock lk(models_mu_);
  if (models_.count(name) != 0)
    throw std::invalid_argument("infer: model already registered: " + name);
  ModelEntry e;
  e.net = &net;
  e.analyzed = std::move(analyzed);
  // Compile the float serving artifact up front (fused ReLU/norm
  // epilogues; bitwise identical to net.forward, see test_compile_*).
  e.compiled_float = std::make_shared<const CompiledNetwork>(GraphCompiler().compile(net));
  models_.emplace(name, std::move(e));
  if (default_model_.empty()) default_model_ = name;
}

std::uint64_t InferenceServer::install_plan(const std::string& name,
                                            const std::vector<FixedPointFormat>& formats,
                                            const QExecOptions& opts) {
  // Lower OUTSIDE the write lock — quantizing every layer's weights is the
  // expensive part, and serving must not stall behind it.
  const Network* net = nullptr;
  std::vector<int> analyzed;
  {
    std::shared_lock lk(models_mu_);
    auto it = models_.find(name);
    if (it == models_.end()) throw std::invalid_argument("infer: unknown model: " + name);
    net = it->second.net;
    analyzed = it->second.analyzed;
  }
  CompileOptions copts;
  copts.weight_bits = opts.weight_bits;
  auto cnet = std::make_shared<const CompiledNetwork>(
      GraphCompiler(copts).compile(*net, analyzed, formats));

  std::unique_lock lk(models_mu_);
  ModelEntry& e = models_.at(name);
  e.compiled_int = std::move(cnet);
  e.plan_version += 1;
  plan_swaps_.fetch_add(1, std::memory_order_relaxed);
  if (metrics_enabled()) im().plan_swaps.add(1);
  return e.plan_version;
}

std::uint64_t InferenceServer::install_plan(const std::string& name, PlanService& service,
                                            const PlanKey& key, const PlanQuery& query) {
  const PlanResult plan = service.plan(key, query);
  QExecOptions opts;
  opts.weight_bits = service.config().weight_bits;
  return install_plan(name, plan.alloc.formats, opts);
}

std::uint64_t InferenceServer::plan_version(const std::string& name) const {
  std::shared_lock lk(models_mu_);
  auto it = models_.find(name);
  return it != models_.end() ? it->second.plan_version : 0;
}

void InferenceServer::start() {
  if (running_.exchange(true, std::memory_order_acq_rel)) return;
  {
    std::lock_guard<std::mutex> lk(qmu_);
    stop_ = false;
  }
  batcher_ = std::thread([this] { run_batcher(); });
}

void InferenceServer::stop() {
  if (stopped_.exchange(true, std::memory_order_acq_rel)) return;
  {
    std::lock_guard<std::mutex> lk(qmu_);
    stop_ = true;
  }
  qcv_.notify_all();
  if (batcher_.joinable()) batcher_.join();
  running_.store(false, std::memory_order_release);
  // Whatever the batcher left behind (never started, or drain disabled)
  // resolves with an explicit kShutdown — a promise is never dropped.
  std::lock_guard<std::mutex> lk(qmu_);
  fail_remaining_locked(InferStatus::kShutdown, "server stopped");
}

void InferenceServer::fail_remaining_locked(InferStatus status, const char* why) {
  while (!queue_.empty()) {
    std::unique_ptr<Request> r = std::move(queue_.front());
    queue_.pop_front();
    if (status == InferStatus::kShutdown) {
      shutdown_unserved_.fetch_add(1, std::memory_order_relaxed);
      if (metrics_enabled()) im().shutdown.add(1);
    }
    InferenceResult res;
    res.status = status;
    res.error = why;
    resolve(std::move(r), std::move(res));
  }
  if (metrics_enabled()) im().queue_depth.set(0);
}

std::future<InferenceResult> InferenceServer::submit(Tensor image, InferOptions opts) {
  const std::int64_t now = mono_now_us();
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (metrics_enabled()) im().submitted.add(1);

  auto r = std::make_unique<Request>();
  r->id = next_id_.fetch_add(1, std::memory_order_relaxed);
  // Root of the request's trace: the async lane opens here and closes in
  // resolve(); the flow arrow connects the submitter's lane to the
  // batcher's. Invalid (all no-ops) when tracing is off.
  r->ctx = mint_trace();
  trace_async('b', "infer.request", r->ctx, "request_id", static_cast<std::int64_t>(r->id));
  trace_flow('s', "infer.request", r->ctx);
  r->opts = std::move(opts);
  if (r->opts.model.empty()) {
    std::shared_lock lk(models_mu_);
    r->opts.model = default_model_;
  }
  r->submit_us = now;
  std::future<InferenceResult> fut = r->promise.get_future();

  auto shed = [&](InferStatus status, const std::string& why,
                  std::atomic<std::int64_t>& stat, Counter& metric) {
    stat.fetch_add(1, std::memory_order_relaxed);
    if (metrics_enabled()) metric.add(1);
    InferenceResult res;
    res.status = status;
    res.error = why;
    resolve(std::move(r), std::move(res));
  };

  if (stopped_.load(std::memory_order_acquire)) {
    shed(InferStatus::kShutdown, "server stopped", shutdown_unserved_, im().shutdown);
    return fut;
  }

  // Validate the model and image geometry up front: a malformed request
  // must never reach the batcher (it would poison a whole batch).
  {
    std::shared_lock lk(models_mu_);
    auto it = models_.find(r->opts.model);
    if (it == models_.end()) {
      lk.unlock();
      shed(InferStatus::kError, "unknown model: " + r->opts.model, errors_, im().failed);
      return fut;
    }
    const Shape& unit = it->second.net->node(it->second.net->input_node()).unit_shape;
    const Shape& got = image.shape();
    const bool ok_4d = got.rank() == 4 && got.n() == 1 && got.c() == unit.c() &&
                       got.h() == unit.h() && got.w() == unit.w();
    const bool ok_3d = got.rank() == 3 && got[0] == unit.c() && got[1] == unit.h() &&
                       got[2] == unit.w();
    if (!ok_4d && !ok_3d) {
      lk.unlock();
      shed(InferStatus::kError,
           "image shape " + got.to_string() + " does not match model input " + unit.to_string(),
           errors_, im().failed);
      return fut;
    }
  }
  if (image.shape().rank() == 3) {
    const Shape s = image.shape();
    image.reshape(Shape({1, s[0], s[1], s[2]}));
  }
  r->image = std::move(image);

  // Deadline feasibility at admission: negative deadlines and deadlines
  // under the service floor are diagnosed now, not after a doomed wait.
  if (r->opts.deadline_us < 0 ||
      (r->opts.deadline_us > 0 && r->opts.deadline_us < cfg_.min_service_us)) {
    shed(InferStatus::kRejectedDeadline,
         "deadline below service floor", rejected_deadline_, im().deadline_rejected);
    return fut;
  }
  if (r->opts.deadline_us > 0) r->deadline_abs_us = now + r->opts.deadline_us;

  {
    std::lock_guard<std::mutex> lk(qmu_);
    if (queue_.size() >= cfg_.max_queue) {
      shed(InferStatus::kRejectedQueueFull, "queue full", rejected_queue_full_,
           im().admission_rejected);
      return fut;
    }
    queue_.push_back(std::move(r));
    if (metrics_enabled()) im().queue_depth.set(static_cast<std::int64_t>(queue_.size()));
  }
  qcv_.notify_one();
  return fut;
}

int InferenceServer::queue_depth() const {
  std::lock_guard<std::mutex> lk(qmu_);
  return static_cast<int>(queue_.size());
}

std::vector<std::unique_ptr<InferenceServer::Request>> InferenceServer::collect_locked(
    std::int64_t now_us) {
  // The front request defines the batch key (model, backend); later
  // requests with the same key coalesce, others keep their queue position.
  std::vector<std::unique_ptr<Request>> batch;
  if (queue_.empty()) return batch;
  const std::string model = queue_.front()->opts.model;
  const InferBackend backend = queue_.front()->opts.backend;

  const int cap = policy_.config().max_batch;
  for (auto it = queue_.begin(); it != queue_.end() && static_cast<int>(batch.size()) < cap;) {
    Request& r = **it;
    if (r.opts.model != model || r.opts.backend != backend) {
      ++it;
      continue;
    }
    std::unique_ptr<Request> taken = std::move(*it);
    it = queue_.erase(it);
    if (taken->deadline_abs_us != 0 && taken->deadline_abs_us < now_us) {
      expired_in_queue_.fetch_add(1, std::memory_order_relaxed);
      if (metrics_enabled()) im().deadline_expired_queued.add(1);
      InferenceResult res;
      res.status = InferStatus::kExpiredInQueue;
      res.error = "deadline expired while queued";
      res.queue_us = now_us - taken->submit_us;
      resolve(std::move(taken), std::move(res));
      continue;
    }
    batch.push_back(std::move(taken));
  }
  if (metrics_enabled()) im().queue_depth.set(static_cast<std::int64_t>(queue_.size()));
  return batch;
}

void InferenceServer::run_batcher() {
  std::unique_lock<std::mutex> lk(qmu_);
  for (;;) {
    qcv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
    if (stop_ && (queue_.empty() || !cfg_.drain_on_stop)) return;

    const std::int64_t now = mono_now_us();
    const BatchDecision d = policy_.decide(static_cast<int>(queue_.size()),
                                           queue_.front()->submit_us, now, stop_);
    if (!d.flush) {
      // Sleep until the timeout flush falls due; any arrival or stop wakes
      // us to re-decide (a size flush may now be possible).
      qcv_.wait_until(lk, mono_origin() + std::chrono::microseconds(d.flush_due_us));
      continue;
    }

    std::vector<std::unique_ptr<Request>> batch = collect_locked(now);
    if (batch.empty()) continue;  // everything collected had expired
    lk.unlock();
    execute_batch(std::move(batch), d.trigger);
    lk.lock();
  }
}

void InferenceServer::execute_batch(std::vector<std::unique_ptr<Request>> batch,
                                    BatchTrigger trigger) {
  const int rows = static_cast<int>(batch.size());
  const std::int64_t collected_us = mono_now_us();

  // Batch sequence number: joins every rider's result/trace/flight record
  // to the one coalesced forward that served them.
  const std::int64_t batch_id = batches_.fetch_add(1, std::memory_order_relaxed) + 1;
  rows_.fetch_add(rows, std::memory_order_relaxed);

  ScopedSpan batch_span("infer.batch", "infer");
  batch_span.arg("batch", batch_id);
  batch_span.arg("rows", rows);
  for (const auto& r : batch) {
    trace_async('n', "infer.dispatch", r->ctx, "batch", batch_id);
    trace_flow('t', "infer.request", r->ctx);
  }
  switch (trigger) {
    case BatchTrigger::kSize: size_flushes_.fetch_add(1, std::memory_order_relaxed); break;
    case BatchTrigger::kTimeout: timeout_flushes_.fetch_add(1, std::memory_order_relaxed); break;
    case BatchTrigger::kDrain: drain_flushes_.fetch_add(1, std::memory_order_relaxed); break;
    case BatchTrigger::kNone: break;
  }
  if (metrics_enabled()) {
    im().batches.add(1);
    im().batch_rows.add(rows);
    im().batch_size.record(static_cast<double>(rows));
    switch (trigger) {
      case BatchTrigger::kSize: im().size_flushes.add(1); break;
      case BatchTrigger::kTimeout: im().timeout_flushes.add(1); break;
      case BatchTrigger::kDrain: im().drain_flushes.add(1); break;
      case BatchTrigger::kNone: break;
    }
  }

  const std::string& model = batch.front()->opts.model;
  const InferBackend backend = batch.front()->opts.backend;

  ModelSnapshot snap;
  {
    std::shared_lock lk(models_mu_);
    const ModelEntry& e = models_.at(model);
    snap.net = e.net;
    // shared_ptr copies: a hot-swap cannot pull them away mid-batch.
    snap.compiled_float = e.compiled_float;
    snap.compiled_int = e.compiled_int;
    snap.plan_version = e.plan_version;
  }

  auto fail_batch = [&](const std::string& why) {
    for (auto& r : batch) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      if (metrics_enabled()) im().failed.add(1);
      InferenceResult res;
      res.status = InferStatus::kError;
      res.error = why;
      res.batch_rows = rows;
      res.trigger = trigger;
      res.batch_id = batch_id;
      res.queue_us = collected_us - r->submit_us;
      resolve(std::move(r), std::move(res));
    }
  };

  if (backend == InferBackend::kInteger && snap.compiled_int == nullptr) {
    fail_batch("no integer plan installed for model: " + model);
    return;
  }

  // Coalesce the rows: each request's (1, C, H, W) image becomes row n of
  // one (N, C, H, W) forward.
  const Shape unit = batch.front()->image.shape();
  Tensor in(Shape({rows, unit.c(), unit.h(), unit.w()}));
  const std::int64_t row_elems = unit.numel();
  for (int n = 0; n < rows; ++n)
    std::memcpy(in.data() + n * row_elems, batch[n]->image.data(),
                static_cast<std::size_t>(row_elems) * sizeof(float));

  // Fault seam (chaos tests, src/core/fault.hpp): kDelay stalls the batch,
  // kDrop fails it with a diagnosis, data kinds poison the output below.
  std::optional<FaultAction> fault;
  if (faults_ != nullptr) fault = faults_->check("infer.forward");
  if (fault && fault->kind == FaultKind::kDrop) {
    fail_batch("injected drop on infer.forward");
    return;
  }

  Tensor out;
  const std::int64_t t0 = mono_now_us();
  // Inside the timed window: a kDelay fault models a forward that stalls,
  // so run_us reports the stall the requests actually experienced.
  if (fault && fault->kind == FaultKind::kDelay)
    std::this_thread::sleep_for(std::chrono::microseconds(fault->delay_us));
  try {
    ForwardStageScope scope(ForwardStage::kServe);
    out = backend == InferBackend::kInteger ? snap.compiled_int->forward(in)
                                            : snap.compiled_float->forward(in);
  } catch (const std::exception& e) {
    fail_batch(std::string("forward failed: ") + e.what());
    return;
  }
  const std::int64_t run_us = mono_now_us() - t0;
  if (fault && fault->kind != FaultKind::kDelay && fault->kind != FaultKind::kDrop)
    fault_poison(out.span(), FaultSchedule{.kind = fault->kind, .fraction = fault->fraction});

  const std::int64_t classes = out.numel() / rows;
  for (int n = 0; n < rows; ++n) {
    std::unique_ptr<Request> r = std::move(batch[static_cast<std::size_t>(n)]);
    const std::int64_t done = mono_now_us();

    InferenceResult res;
    res.backend = backend;
    res.batch_rows = rows;
    res.trigger = trigger;
    res.batch_id = batch_id;
    res.plan_version = backend == InferBackend::kInteger ? snap.plan_version : 0;
    res.queue_us = collected_us - r->submit_us;
    res.run_us = run_us;
    res.logits.assign(out.data() + n * classes, out.data() + (n + 1) * classes);
    res.predicted = argmax_row(res.logits.data(), classes);

    if (r->deadline_abs_us != 0 && done > r->deadline_abs_us) {
      res.status = InferStatus::kDeadlineExceeded;
      res.error = "deadline exceeded during execution";
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      if (metrics_enabled()) im().deadline_exceeded.add(1);
    } else {
      res.status = InferStatus::kOk;
      completed_.fetch_add(1, std::memory_order_relaxed);
      if (metrics_enabled()) im().ok.add(1);
    }
    resolve(std::move(r), std::move(res));
  }
}

void InferenceServer::resolve(std::unique_ptr<Request> r, InferenceResult&& res) {
  const std::int64_t now = mono_now_us();
  res.id = r->id;
  res.model = r->opts.model;
  res.backend = r->opts.backend;
  res.total_us = now - r->submit_us;
  res.trace_id = r->ctx.trace_id;
  if (metrics_enabled()) {
    im().latency_ms.record(static_cast<double>(res.total_us) / 1000.0);
    im().queue_ms.record(static_cast<double>(res.queue_us) / 1000.0);
  }
  trace_async('e', "infer.request", r->ctx, "status", static_cast<std::int64_t>(res.status));
  trace_flow('f', "infer.request", r->ctx);
  if (flight_recording_enabled()) {
    RequestRecord rec;
    rec.trace_id = r->ctx.trace_id;
    rec.request_id = r->id;
    rec.source = "infer";
    rec.status = infer_status_name(res.status);
    rec.ok = res.status == InferStatus::kOk;
    rec.deadline_hit = res.status == InferStatus::kDeadlineExceeded ||
                       res.status == InferStatus::kExpiredInQueue;
    rec.queue_us = res.queue_us;
    rec.exec_us = res.run_us;
    rec.total_us = res.total_us;
    rec.batch_id = res.batch_id;
    rec.t_us = now;
    flight_recorder().record(rec);
  }
  r->promise.set_value(std::move(res));
}

ServerStats InferenceServer::stats() const {
  ServerStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.rejected_queue_full = rejected_queue_full_.load(std::memory_order_relaxed);
  s.rejected_deadline = rejected_deadline_.load(std::memory_order_relaxed);
  s.expired_in_queue = expired_in_queue_.load(std::memory_order_relaxed);
  s.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  s.shutdown_unserved = shutdown_unserved_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.rows = rows_.load(std::memory_order_relaxed);
  s.size_flushes = size_flushes_.load(std::memory_order_relaxed);
  s.timeout_flushes = timeout_flushes_.load(std::memory_order_relaxed);
  s.drain_flushes = drain_flushes_.load(std::memory_order_relaxed);
  s.plan_swaps = plan_swaps_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace mupod

// InferenceServer battery: batch policy fake-clock walks, size/timeout/
// drain flush behaviour, deadline semantics at each lifecycle point,
// admission control, shutdown draining, bit-determinism of batched rows,
// integer-backend serving, plan hot-swap under load, seeded chaos, and the
// ServerStats <-> infer.* metrics symmetry contract. Runs in the
// `sanitize` ctest label so the TSan lane exercises the batcher thread,
// the shared-mutex registry, and concurrent submitters for real.
#include "infer/server.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "core/clock.hpp"
#include "core/fault.hpp"
#include "data/synthetic.hpp"
#include "infer/batch_policy.hpp"
#include "obs/metrics.hpp"
#include "tensor/parallel.hpp"
#include "zoo/zoo.hpp"

namespace mupod {
namespace {

struct InferFixture {
  ZooModel model;
  std::unique_ptr<SyntheticImageDataset> dataset;
};

const InferFixture& fixture() {
  static InferFixture* f = [] {
    auto* fx = new InferFixture();
    ZooOptions zo;
    zo.num_classes = 10;
    zo.seed = 404;
    zo.data_seed = 8;
    zo.calibration_images = 8;
    zo.head_images = 0;  // serving tests need determinism, not margins
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

Tensor image(int i) {
  Tensor t(Shape({1, 3, 16, 16}));
  fixture().dataset->render_image(i, t, 0);
  return t;
}

std::vector<FixedPointFormat> uniform_formats(int n, int integer_bits, int fraction_bits) {
  return std::vector<FixedPointFormat>(static_cast<std::size_t>(n),
                                       FixedPointFormat{integer_bits, fraction_bits});
}

// --- BatchPolicy: pure decisions on an explicit clock ----------------------

TEST(BatchPolicy, EmptyQueueNeverFlushes) {
  BatchPolicy p({.max_batch = 4, .max_wait_us = 100});
  const BatchDecision d = p.decide(0, 0, 999999, /*draining=*/true);
  EXPECT_FALSE(d.flush);
  EXPECT_EQ(d.trigger, BatchTrigger::kNone);
}

TEST(BatchPolicy, SizeFlushFiresAtCapRegardlessOfAge) {
  BatchPolicy p({.max_batch = 4, .max_wait_us = 1000});
  const BatchDecision d = p.decide(4, /*oldest=*/100, /*now=*/100, false);
  EXPECT_TRUE(d.flush);
  EXPECT_EQ(d.trigger, BatchTrigger::kSize);
  // Above cap too (collector trims to max_batch).
  EXPECT_EQ(p.decide(9, 100, 100, false).trigger, BatchTrigger::kSize);
}

TEST(BatchPolicy, TimeoutFlushWalksTheClock) {
  BatchPolicy p({.max_batch = 8, .max_wait_us = 1000});
  // Oldest request enqueued at t=500: no flush until t=1500, and the
  // decision reports exactly that due time as the cv wait target.
  BatchDecision d = p.decide(3, 500, 600, false);
  EXPECT_FALSE(d.flush);
  EXPECT_EQ(d.flush_due_us, 1500);
  d = p.decide(3, 500, 1499, false);
  EXPECT_FALSE(d.flush);
  d = p.decide(3, 500, 1500, false);
  EXPECT_TRUE(d.flush);
  EXPECT_EQ(d.trigger, BatchTrigger::kTimeout);
}

TEST(BatchPolicy, DrainFlushesAnyDepthImmediately) {
  BatchPolicy p({.max_batch = 8, .max_wait_us = 1000000});
  const BatchDecision d = p.decide(1, /*oldest=*/0, /*now=*/0, /*draining=*/true);
  EXPECT_TRUE(d.flush);
  EXPECT_EQ(d.trigger, BatchTrigger::kDrain);
  // Size still wins over drain (a full batch is a full batch).
  EXPECT_EQ(p.decide(8, 0, 0, true).trigger, BatchTrigger::kSize);
}

TEST(BatchPolicy, ClampsDegenerateConfig) {
  BatchPolicy p({.max_batch = 0, .max_wait_us = -5});
  EXPECT_EQ(p.config().max_batch, 1);
  EXPECT_EQ(p.config().max_wait_us, 0);
  // max_batch 1 degenerates to no batching: every request size-flushes.
  EXPECT_EQ(p.decide(1, 0, 0, false).trigger, BatchTrigger::kSize);
}

TEST(BatchPolicy, TriggerNamesAreStable) {
  EXPECT_STREQ(batch_trigger_name(BatchTrigger::kNone), "none");
  EXPECT_STREQ(batch_trigger_name(BatchTrigger::kSize), "size");
  EXPECT_STREQ(batch_trigger_name(BatchTrigger::kTimeout), "timeout");
  EXPECT_STREQ(batch_trigger_name(BatchTrigger::kDrain), "drain");
}

// --- Server: batching ------------------------------------------------------

TEST(InferenceServer, CoalescesQueuedRequestsIntoOneSizeFlushedBatch) {
  const InferFixture& f = fixture();
  InferenceServerConfig cfg;
  cfg.batch.max_batch = 8;
  cfg.batch.max_wait_us = 1000000;  // only a size flush can cut this batch
  InferenceServer server(cfg);
  server.register_model("tiny", f.model.net, f.model.analyzed);

  // Queue up exactly max_batch requests before the batcher exists, so the
  // first decision sees depth == cap: one deterministic size flush.
  std::vector<std::future<InferenceResult>> futs;
  for (int i = 0; i < 8; ++i) futs.push_back(server.submit(image(i)));
  server.start();
  for (auto& fu : futs) {
    const InferenceResult r = fu.get();
    EXPECT_EQ(r.status, InferStatus::kOk) << r.error;
    EXPECT_EQ(r.trigger, BatchTrigger::kSize);
    EXPECT_EQ(r.batch_rows, 8);
    EXPECT_EQ(static_cast<int>(r.logits.size()), f.model.num_classes);
    EXPECT_GE(r.predicted, 0);
  }
  server.stop();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.submitted, 8);
  EXPECT_EQ(s.completed, 8);
  EXPECT_EQ(s.batches, 1);
  EXPECT_EQ(s.rows, 8);
  EXPECT_EQ(s.size_flushes, 1);
  EXPECT_EQ(s.timeout_flushes, 0);
}

TEST(InferenceServer, FlushesByTimeoutBelowTheSizeCap) {
  const InferFixture& f = fixture();
  InferenceServerConfig cfg;
  cfg.batch.max_batch = 8;
  cfg.batch.max_wait_us = 2000;
  InferenceServer server(cfg);
  server.register_model("tiny", f.model.net, f.model.analyzed);
  server.start();

  std::vector<std::future<InferenceResult>> futs;
  for (int i = 0; i < 3; ++i) futs.push_back(server.submit(image(i)));
  int rows_served = 0;
  for (auto& fu : futs) {
    const InferenceResult r = fu.get();
    EXPECT_EQ(r.status, InferStatus::kOk) << r.error;
    // Never a size flush (3 < 8); the oldest request aged out instead.
    EXPECT_EQ(r.trigger, BatchTrigger::kTimeout);
  }
  server.stop();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.completed, 3);
  EXPECT_EQ(s.rows, 3);
  EXPECT_GE(s.timeout_flushes, 1);
  EXPECT_EQ(s.size_flushes, 0);
  rows_served = static_cast<int>(s.rows);
  EXPECT_EQ(rows_served, 3);
}

// --- Server: deadlines -----------------------------------------------------

TEST(InferenceServer, RejectsInfeasibleDeadlinesAtSubmit) {
  const InferFixture& f = fixture();
  InferenceServerConfig cfg;
  cfg.min_service_us = 1000;
  InferenceServer server(cfg);  // never started: rejection is submit-side
  server.register_model("tiny", f.model.net, f.model.analyzed);

  InferOptions below_floor;
  below_floor.deadline_us = 500;
  InferenceResult r = server.submit(image(0), below_floor).get();
  EXPECT_EQ(r.status, InferStatus::kRejectedDeadline);
  EXPECT_TRUE(r.logits.empty());
  EXPECT_EQ(r.predicted, -1);

  InferOptions negative;
  negative.deadline_us = -1;
  r = server.submit(image(0), negative).get();
  EXPECT_EQ(r.status, InferStatus::kRejectedDeadline);

  // At the floor is feasible: it queues instead of shedding.
  InferOptions at_floor;
  at_floor.deadline_us = 1000;
  auto fu = server.submit(image(0), at_floor);
  EXPECT_EQ(server.queue_depth(), 1);

  const ServerStats s = server.stats();
  EXPECT_EQ(s.submitted, 3);
  EXPECT_EQ(s.rejected_deadline, 2);
  server.stop();  // resolves the queued request kShutdown
  EXPECT_EQ(fu.get().status, InferStatus::kShutdown);
}

TEST(InferenceServer, DeadlineExpiredInQueueIsNeverExecuted) {
  const InferFixture& f = fixture();
  InferenceServer server;
  server.register_model("tiny", f.model.net, f.model.analyzed);

  // Enqueue with a 1ms deadline while no batcher is running, let it
  // expire, then start: the collector diagnoses it without paying the
  // forward.
  InferOptions opts;
  opts.deadline_us = 1000;
  auto fu = server.submit(image(0), opts);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  server.start();
  const InferenceResult r = fu.get();
  EXPECT_EQ(r.status, InferStatus::kExpiredInQueue);
  EXPECT_TRUE(r.logits.empty());
  EXPECT_EQ(r.batch_rows, 0);  // rode no batch
  EXPECT_GT(r.queue_us, 0);
  server.stop();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.expired_in_queue, 1);
  EXPECT_EQ(s.batches, 0);
}

TEST(InferenceServer, DeadlineExceededDuringExecutionStillDeliversLogits) {
  const InferFixture& f = fixture();
  FaultInjector faults;
  FaultSchedule slow;
  slow.kind = FaultKind::kDelay;
  slow.delay_us = 300000;  // the forward takes 300ms...
  slow.last_call = 0;      // ...once
  faults.arm("infer.forward", slow);

  InferenceServer server;
  server.register_model("tiny", f.model.net, f.model.analyzed);
  server.set_fault_injector(&faults);
  server.start();

  InferOptions opts;
  opts.deadline_us = 100000;  // 100ms: collected in time, finished late
  const InferenceResult r = server.submit(image(0), opts).get();
  server.stop();

  EXPECT_EQ(r.status, InferStatus::kDeadlineExceeded);
  // Late data is still data: the caller decides whether to use it.
  EXPECT_EQ(static_cast<int>(r.logits.size()), f.model.num_classes);
  EXPECT_GE(r.predicted, 0);
  EXPECT_GE(r.run_us, 200000);
  EXPECT_EQ(server.stats().deadline_exceeded, 1);
  EXPECT_EQ(faults.fired("infer.forward"), 1);
}

// --- Server: admission control ---------------------------------------------

TEST(InferenceServer, ShedsOnFullQueueThenServesTheAdmitted) {
  const InferFixture& f = fixture();
  InferenceServerConfig cfg;
  cfg.max_queue = 2;
  cfg.batch.max_wait_us = 0;  // flush as soon as the batcher sees work
  InferenceServer server(cfg);
  server.register_model("tiny", f.model.net, f.model.analyzed);

  auto f1 = server.submit(image(0));
  auto f2 = server.submit(image(1));
  auto f3 = server.submit(image(2));  // bounced: queue holds 2

  const InferenceResult r3 = f3.get();  // resolved without a batcher
  EXPECT_EQ(r3.status, InferStatus::kRejectedQueueFull);
  EXPECT_EQ(r3.error, "queue full");

  server.start();
  EXPECT_EQ(f1.get().status, InferStatus::kOk);
  EXPECT_EQ(f2.get().status, InferStatus::kOk);
  server.stop();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.rejected_queue_full, 1);
  EXPECT_EQ(s.completed, 2);
  EXPECT_EQ(s.resolved(), s.submitted);
}

// --- Server: shutdown ------------------------------------------------------

TEST(InferenceServer, StopDrainsQueuedRequestsToCompletion) {
  const InferFixture& f = fixture();
  InferenceServerConfig cfg;
  cfg.batch.max_batch = 8;
  cfg.batch.max_wait_us = 1000000;  // only the drain can cut this batch
  cfg.drain_on_stop = true;
  InferenceServer server(cfg);
  server.register_model("tiny", f.model.net, f.model.analyzed);
  server.start();

  std::vector<std::future<InferenceResult>> futs;
  for (int i = 0; i < 3; ++i) futs.push_back(server.submit(image(i)));
  server.stop();  // returns only after every future resolved
  for (auto& fu : futs) {
    const InferenceResult r = fu.get();
    EXPECT_EQ(r.status, InferStatus::kOk) << r.error;
    EXPECT_EQ(r.trigger, BatchTrigger::kDrain);
  }
  EXPECT_EQ(server.stats().drain_flushes, 1);
  EXPECT_EQ(server.stats().shutdown_unserved, 0);
}

TEST(InferenceServer, StopWithoutDrainResolvesShutdownExplicitly) {
  const InferFixture& f = fixture();
  InferenceServerConfig cfg;
  cfg.drain_on_stop = false;
  InferenceServer server(cfg);
  server.register_model("tiny", f.model.net, f.model.analyzed);

  auto f1 = server.submit(image(0));
  auto f2 = server.submit(image(1));
  server.stop();
  EXPECT_EQ(f1.get().status, InferStatus::kShutdown);
  EXPECT_EQ(f2.get().status, InferStatus::kShutdown);

  // Submitting after stop fast-fails; a promise is never left dangling.
  const InferenceResult late = server.submit(image(2)).get();
  EXPECT_EQ(late.status, InferStatus::kShutdown);
  const ServerStats s = server.stats();
  EXPECT_EQ(s.shutdown_unserved, 3);
  EXPECT_EQ(s.resolved(), s.submitted);
}

// --- Server: request validation --------------------------------------------

TEST(InferenceServer, UnknownModelAndBadGeometryFailBeforeTheQueue) {
  const InferFixture& f = fixture();
  InferenceServer server;
  server.register_model("tiny", f.model.net, f.model.analyzed);

  InferOptions wrong_model;
  wrong_model.model = "resnet9000";
  InferenceResult r = server.submit(image(0), wrong_model).get();
  EXPECT_EQ(r.status, InferStatus::kError);
  EXPECT_NE(r.error.find("unknown model"), std::string::npos);

  Tensor bad(Shape({1, 3, 8, 8}));
  r = server.submit(std::move(bad), {}).get();
  EXPECT_EQ(r.status, InferStatus::kError);
  EXPECT_NE(r.error.find("does not match"), std::string::npos);

  // A (C, H, W) image is accepted and reshaped to (1, C, H, W).
  Tensor chw = image(0);
  chw.reshape(Shape({3, 16, 16}));
  auto fu = server.submit(std::move(chw));
  EXPECT_EQ(server.queue_depth(), 1);
  server.stop();
  EXPECT_EQ(fu.get().status, InferStatus::kShutdown);
  EXPECT_EQ(server.stats().errors, 2);
}

// --- Determinism: batched rows == one-at-a-time forwards --------------------

TEST(InferenceServer, BatchedRowsAreByteIdenticalToSequentialForwards) {
  const InferFixture& f = fixture();
  for (const int workers : {1, 2, 4}) {
    set_parallel_worker_count(workers);
    InferenceServerConfig cfg;
    cfg.batch.max_batch = 8;
    cfg.batch.max_wait_us = 1000000;
    InferenceServer server(cfg);
    server.register_model("tiny", f.model.net, f.model.analyzed);

    std::vector<std::future<InferenceResult>> futs;
    for (int i = 0; i < 8; ++i) futs.push_back(server.submit(image(i)));
    server.start();  // depth == cap: one 8-row batch
    for (int i = 0; i < 8; ++i) {
      const InferenceResult r = futs[static_cast<std::size_t>(i)].get();
      ASSERT_EQ(r.status, InferStatus::kOk) << r.error;
      ASSERT_EQ(r.batch_rows, 8);
      const Tensor solo = f.model.net.forward(image(i));
      ASSERT_EQ(static_cast<std::int64_t>(r.logits.size()), solo.numel());
      // memcmp, not EXPECT_FLOAT_EQ: the GEMM determinism contract is
      // bitwise per (image, group), independent of batch decomposition
      // and worker count.
      EXPECT_EQ(std::memcmp(r.logits.data(), solo.data(),
                            r.logits.size() * sizeof(float)),
                0)
          << "row " << i << " diverged at " << workers << " workers";
    }
    server.stop();
  }
  set_parallel_worker_count(0);
}

// --- Integer backend --------------------------------------------------------

TEST(InferenceServer, IntegerBackendRequiresAnInstalledPlan) {
  const InferFixture& f = fixture();
  InferenceServer server;
  server.register_model("tiny", f.model.net, f.model.analyzed);
  server.start();
  InferOptions opts;
  opts.backend = InferBackend::kInteger;
  const InferenceResult r = server.submit(image(0), opts).get();
  EXPECT_EQ(r.status, InferStatus::kError);
  EXPECT_NE(r.error.find("no integer plan"), std::string::npos);
  server.stop();
}

TEST(InferenceServer, IntegerBatchesMatchDirectCompileBitwise) {
  const InferFixture& f = fixture();
  const auto formats = uniform_formats(static_cast<int>(f.model.analyzed.size()), 8, 8);
  QExecOptions qopts;
  CompileOptions copts;
  copts.weight_bits = qopts.weight_bits;
  const CompiledNetwork direct =
      GraphCompiler(copts).compile(f.model.net, f.model.analyzed, formats);

  InferenceServerConfig cfg;
  cfg.batch.max_batch = 4;
  cfg.batch.max_wait_us = 1000000;
  InferenceServer server(cfg);
  server.register_model("tiny", f.model.net, f.model.analyzed);
  EXPECT_EQ(server.plan_version("tiny"), 0u);
  EXPECT_EQ(server.install_plan("tiny", formats, qopts), 1u);
  EXPECT_EQ(server.plan_version("tiny"), 1u);

  std::vector<std::future<InferenceResult>> futs;
  InferOptions opts;
  opts.backend = InferBackend::kInteger;
  for (int i = 0; i < 4; ++i) futs.push_back(server.submit(image(i), opts));
  server.start();
  for (int i = 0; i < 4; ++i) {
    const InferenceResult r = futs[static_cast<std::size_t>(i)].get();
    ASSERT_EQ(r.status, InferStatus::kOk) << r.error;
    EXPECT_EQ(r.backend, InferBackend::kInteger);
    EXPECT_EQ(r.plan_version, 1u);
    const Tensor solo = direct.forward(image(i));
    ASSERT_EQ(static_cast<std::int64_t>(r.logits.size()), solo.numel());
    EXPECT_EQ(std::memcmp(r.logits.data(), solo.data(), r.logits.size() * sizeof(float)), 0)
        << "integer row " << i << " diverged from the directly lowered plan";
  }
  server.stop();
}

// --- Hot swap under load (the TSan lane earns its keep here) ----------------

TEST(InferenceServer, PlanHotSwapNeverStallsOrCorruptsServing) {
  const InferFixture& f = fixture();
  InferenceServerConfig cfg;
  cfg.batch.max_batch = 4;
  cfg.batch.max_wait_us = 200;
  InferenceServer server(cfg);
  server.register_model("tiny", f.model.net, f.model.analyzed);
  const int n_fmt = static_cast<int>(f.model.analyzed.size());
  server.install_plan("tiny", uniform_formats(n_fmt, 8, 8));
  server.start();

  // Client thread hammers both backends while the main thread swaps plans.
  constexpr int kRequests = 60;
  std::vector<std::future<InferenceResult>> futs(kRequests);
  std::thread client([&] {
    for (int i = 0; i < kRequests; ++i) {
      InferOptions opts;
      opts.backend = (i % 2 == 0) ? InferBackend::kFloat : InferBackend::kInteger;
      futs[static_cast<std::size_t>(i)] = server.submit(image(i % 8), opts);
    }
  });
  for (int swap = 0; swap < 4; ++swap)
    server.install_plan("tiny", uniform_formats(n_fmt, 8, 8 + swap));
  client.join();

  for (auto& fu : futs) {
    const InferenceResult r = fu.get();
    EXPECT_EQ(r.status, InferStatus::kOk) << r.error;
    if (r.backend == InferBackend::kInteger) {
      // Every integer row was served under exactly one installed version.
      EXPECT_GE(r.plan_version, 1u);
      EXPECT_LE(r.plan_version, 5u);
    }
  }
  server.stop();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.plan_swaps, 5);
  EXPECT_EQ(s.completed, kRequests);
  EXPECT_EQ(s.resolved(), s.submitted);
}

// --- Seeded chaos -----------------------------------------------------------

TEST(InferenceServer, SeededDelayChaosKeepsEveryPromiseAccounted) {
  const InferFixture& f = fixture();
  FaultInjector faults;
  FaultSchedule chaos;
  chaos.kind = FaultKind::kDelay;
  chaos.delay_us = 2000;
  chaos.probability = 0.5;  // pre-committed coin flips: deterministic set
  chaos.seed = 7;
  faults.arm("infer.forward", chaos);

  InferenceServerConfig cfg;
  cfg.batch.max_batch = 4;
  cfg.batch.max_wait_us = 300;
  InferenceServer server(cfg);
  server.register_model("tiny", f.model.net, f.model.analyzed);
  server.set_fault_injector(&faults);
  server.start();

  constexpr int kRequests = 32;
  std::vector<std::future<InferenceResult>> futs;
  for (int i = 0; i < kRequests; ++i) {
    InferOptions opts;
    // A third of the requests carry a deadline tight enough that a delayed
    // batch pushes them over: chaos turns into diagnosed statuses, never
    // hangs or broken promises.
    if (i % 3 == 0) opts.deadline_us = 1500;
    futs.push_back(server.submit(image(i % 8), opts));
  }
  for (auto& fu : futs) {
    const InferenceResult r = fu.get();
    EXPECT_TRUE(r.status == InferStatus::kOk || r.status == InferStatus::kDeadlineExceeded ||
                r.status == InferStatus::kExpiredInQueue)
        << infer_status_name(r.status) << ": " << r.error;
  }
  server.stop();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.submitted, kRequests);
  EXPECT_EQ(s.resolved(), kRequests);
  EXPECT_GT(faults.calls("infer.forward"), 0);
}

// --- ServerStats <-> infer.* symmetry ---------------------------------------

TEST(InferenceServer, StatsMatchMetricsSnapshot) {
  // Mirror of PlanService's CacheLifecycleCountersMatchMetricsSnapshot:
  // the operator-visible infer.* family and the server's own ServerStats
  // must tell the same story, counter for counter.
  set_metrics_enabled(true);
  metrics().reset();

  const InferFixture& f = fixture();
  InferenceServerConfig cfg;
  cfg.batch.max_batch = 4;
  cfg.batch.max_wait_us = 500;
  cfg.max_queue = 5;
  cfg.min_service_us = 1000;
  cfg.drain_on_stop = false;
  InferenceServer server(cfg);
  server.register_model("tiny", f.model.net, f.model.analyzed);

  // Unstarted phase: fill the queue (4 plain + 1 that will expire), then
  // trip every submit-side shed path once.
  std::vector<std::future<InferenceResult>> futs;
  for (int i = 0; i < 4; ++i) futs.push_back(server.submit(image(i)));
  InferOptions expiring;
  expiring.deadline_us = 2000;
  futs.push_back(server.submit(image(4), expiring));
  InferOptions infeasible;
  infeasible.deadline_us = -1;
  futs.push_back(server.submit(image(5), infeasible));  // kRejectedDeadline
  futs.push_back(server.submit(image(6)));              // kRejectedQueueFull
  InferOptions wrong;
  wrong.model = "nope";
  futs.push_back(server.submit(image(7), wrong));  // kError

  std::this_thread::sleep_for(std::chrono::milliseconds(5));  // expire #5
  server.start();  // size flush of 4, then the expired straggler
  for (int i = 0; i < 4; ++i) EXPECT_EQ(futs[static_cast<std::size_t>(i)].get().status,
                                        InferStatus::kOk);
  EXPECT_EQ(futs[4].get().status, InferStatus::kExpiredInQueue);

  // Timeout flush + a plan swap + an integer request.
  server.install_plan("tiny",
                      uniform_formats(static_cast<int>(f.model.analyzed.size()), 8, 8));
  InferOptions integer;
  integer.backend = InferBackend::kInteger;
  EXPECT_EQ(server.submit(image(0), integer).get().status, InferStatus::kOk);

  server.stop();
  EXPECT_EQ(server.submit(image(1)).get().status, InferStatus::kShutdown);

  const ServerStats s = server.stats();
  const MetricsSnapshot snap = metrics().snapshot();
  set_metrics_enabled(false);

  EXPECT_EQ(s.resolved(), s.submitted);
  EXPECT_EQ(snap.counter("infer.requests.submitted"), s.submitted);
  EXPECT_EQ(snap.counter("infer.requests.ok"), s.completed);
  EXPECT_EQ(snap.counter("infer.requests.failed"), s.errors);
  EXPECT_EQ(snap.counter("infer.requests.shutdown"), s.shutdown_unserved);
  EXPECT_EQ(snap.counter("infer.admission.rejected"), s.rejected_queue_full);
  EXPECT_EQ(snap.counter("infer.deadline.rejected"), s.rejected_deadline);
  EXPECT_EQ(snap.counter("infer.deadline.expired_queued"), s.expired_in_queue);
  EXPECT_EQ(snap.counter("infer.deadline.exceeded"), s.deadline_exceeded);
  EXPECT_EQ(snap.counter("infer.batches"), s.batches);
  EXPECT_EQ(snap.counter("infer.batch.rows"), s.rows);
  EXPECT_EQ(snap.counter("infer.batch.size_flushes"), s.size_flushes);
  EXPECT_EQ(snap.counter("infer.batch.timeout_flushes"), s.timeout_flushes);
  EXPECT_EQ(snap.counter("infer.batch.drain_flushes"), s.drain_flushes);
  EXPECT_EQ(snap.counter("infer.plan.swaps"), s.plan_swaps);

  // Spot-check the specific story this scenario told.
  EXPECT_EQ(s.completed, 5);
  EXPECT_EQ(s.rejected_deadline, 1);
  EXPECT_EQ(s.rejected_queue_full, 1);
  EXPECT_EQ(s.expired_in_queue, 1);
  EXPECT_EQ(s.errors, 1);
  EXPECT_EQ(s.shutdown_unserved, 1);
  EXPECT_EQ(s.size_flushes, 1);
  EXPECT_EQ(s.plan_swaps, 1);
}

}  // namespace
}  // namespace mupod

// Telemetry layer battery (src/obs/telemetry, src/obs/trace ring):
//
//  1. Tracer ring wraparound: dropped-event accounting and the
//     per-thread chronological-order invariant under concurrent
//     recorders (this file is in the `sanitize` ctest label, so the
//     TSan lane exercises the ring mutex and the relaxed counters).
//  2. TelemetryExporter: the explicit-clock due()/flush() split, the
//     EXACT delta discipline (summing every JSONL record's counter
//     deltas reproduces the final snapshot to the count), Prometheus
//     name mangling, and the background driver thread.
//  3. FlightRecorder: shard-ring retention, trigger-based incident
//     bundles with the max_incidents bound.
//  4. The acceptance chaos run from the PR issue: seeded kill +
//     straggler + hedge through ClusterController AND a deadline-laden
//     burst through InferenceServer, asserting that EVERY request ends
//     with a connected trace (submit -> dispatch -> attempts -> resolve
//     sharing one trace_id, present in the Chrome-trace export) or a
//     flight-recorder record with a terminal failure status — and that
//     the exporter's JSONL series sums exactly to the final snapshot.
#include "obs/telemetry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/fault.hpp"
#include "data/synthetic.hpp"
#include "infer/server.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "zoo/zoo.hpp"

namespace mupod {
namespace {

// Minimal recursive-descent JSON well-formedness checker (the repo has a
// writer but deliberately no parser; schema details are asserted with
// targeted substring checks). Same shape as the one in test_obs.cpp.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}
  bool valid() {
    i_ = 0;
    if (!value()) return false;
    ws();
    return i_ == s_.size();
  }

 private:
  bool value() {
    ws();
    if (i_ >= s_.size()) return false;
    switch (s_[i_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++i_;
    ws();
    if (peek() == '}') { ++i_; return true; }
    while (true) {
      ws();
      if (!string()) return false;
      ws();
      if (peek() != ':') return false;
      ++i_;
      if (!value()) return false;
      ws();
      if (peek() == ',') { ++i_; continue; }
      if (peek() == '}') { ++i_; return true; }
      return false;
    }
  }
  bool array() {
    ++i_;
    ws();
    if (peek() == ']') { ++i_; return true; }
    while (true) {
      if (!value()) return false;
      ws();
      if (peek() == ',') { ++i_; continue; }
      if (peek() == ']') { ++i_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++i_;
    while (i_ < s_.size()) {
      const char c = s_[i_];
      if (c == '"') { ++i_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        ++i_;
        if (i_ >= s_.size()) return false;
      }
      ++i_;
    }
    return false;
  }
  bool number() {
    const std::size_t start = i_;
    if (peek() == '-') ++i_;
    while (i_ < s_.size() && (std::isdigit(static_cast<unsigned char>(s_[i_])) ||
                              s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E' ||
                              s_[i_] == '+' || s_[i_] == '-'))
      ++i_;
    return i_ > start;
  }
  bool literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (s_.compare(i_, n, lit) != 0) return false;
    i_ += n;
    return true;
  }
  void ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' || s_[i_] == '\n' || s_[i_] == '\r'))
      ++i_;
  }
  char peek() const { return i_ < s_.size() ? s_[i_] : '\0'; }

  const std::string& s_;
  std::size_t i_ = 0;
};

bool json_well_formed(const std::string& s) { return JsonChecker(s).valid(); }

// Mirrors trace.cpp's append_hex: how async/flow events spell their
// Perfetto correlation "id" in the Chrome-trace export.
std::string hex_id(std::uint64_t v) {
  std::string out = "0x";
  bool started = false;
  for (int shift = 60; shift >= 0; shift -= 4) {
    const int nib = static_cast<int>((v >> shift) & 0xF);
    if (nib == 0 && !started && shift != 0) continue;
    started = true;
    out += "0123456789abcdef"[nib];
  }
  return out;
}

// Extracts a flat {"name":int,...} object embedded under `key` in one
// JSONL record line. Counters/gauges objects are flat by construction
// (histograms are the only nested section, and it comes after both).
std::map<std::string, std::int64_t> parse_int_object(const std::string& line,
                                                     const std::string& key) {
  std::map<std::string, std::int64_t> out;
  const std::string tag = "\"" + key + "\":{";
  std::size_t i = line.find(tag);
  if (i == std::string::npos) return out;
  i += tag.size();
  while (i < line.size() && line[i] != '}') {
    const std::size_t q0 = line.find('"', i);
    const std::size_t q1 = line.find('"', q0 + 1);
    const std::size_t colon = line.find(':', q1);
    const std::size_t end = line.find_first_of(",}", colon);
    if (q0 == std::string::npos || q1 == std::string::npos || end == std::string::npos) break;
    out[line.substr(q0 + 1, q1 - q0 - 1)] = std::stoll(line.substr(colon + 1, end - colon - 1));
    i = line[end] == ',' ? end + 1 : end;
  }
  return out;
}

// Sum of one histogram's "count" deltas in a JSONL record line.
std::int64_t histogram_count_delta(const std::string& line, const std::string& name) {
  const std::size_t h = line.find("\"histograms\":{");
  if (h == std::string::npos) return 0;
  const std::string tag = "\"" + name + "\":{\"count\":";
  const std::size_t at = line.find(tag, h);
  if (at == std::string::npos) return 0;
  return std::stoll(line.substr(at + tag.size()));
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream f(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(f, line);)
    if (!line.empty()) lines.push_back(line);
  return lines;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  return std::string((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
}

// Start every test from a clean slate and leave the process-global
// switches the way the rest of the suite expects (off).
struct TelReset {
  TelReset() {
    set_metrics_enabled(false);
    set_tracing_enabled(false);
    set_flight_recording_enabled(false);
    metrics().reset();
    tracer().clear();
    flight_recorder().clear();
    flight_recorder().configure(FlightRecorderConfig{});
  }
  ~TelReset() {
    set_metrics_enabled(false);
    set_tracing_enabled(false);
    set_flight_recording_enabled(false);
  }
};

// ----------------------------------------------------- tracer ring buffer --

TEST(TracerRing, WrapDropsOldestCountsDroppedAndKeepsChronology) {
  Tracer t(8);
  for (int i = 0; i < 20; ++i) {
    TraceEvent e;
    e.name = "ev";
    e.ts_us = static_cast<std::uint64_t>(i);
    e.args[0] = {"seq", i};
    e.n_args = 1;
    t.record(std::move(e));
  }
  EXPECT_EQ(t.size(), 8u);
  EXPECT_EQ(t.capacity(), 8u);
  EXPECT_EQ(t.dropped(), 12);

  // events() is oldest-first: exactly the newest 8, in recording order.
  const std::vector<TraceEvent> evs = t.events();
  ASSERT_EQ(evs.size(), 8u);
  for (std::size_t i = 0; i < evs.size(); ++i)
    EXPECT_EQ(evs[i].args[0].second, static_cast<std::int64_t>(12 + i));

  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.dropped(), 0);
}

TEST(TracerRing, ConcurrentRecordersStayPerThreadChronologicalAcrossWrap) {
  // A ring far smaller than the event volume, hammered from 4 threads:
  // every event is accounted (retained + dropped == recorded), and the
  // retained subsequence of each thread is strictly ordered — wraparound
  // may drop a prefix, never shuffle.
  Tracer t(64);
  constexpr int kThreads = 4, kPerThread = 2000;
  std::vector<std::thread> ts;
  for (int tid = 0; tid < kThreads; ++tid) {
    ts.emplace_back([&t, tid] {
      for (int i = 0; i < kPerThread; ++i) {
        TraceEvent e;
        e.name = "ev";
        e.args[0] = {"thread", tid};
        e.args[1] = {"seq", i};
        e.n_args = 2;
        t.record(std::move(e));
      }
    });
  }
  for (std::thread& th : ts) th.join();

  EXPECT_EQ(t.size(), 64u);
  EXPECT_EQ(static_cast<std::int64_t>(t.size()) + t.dropped(),
            static_cast<std::int64_t>(kThreads) * kPerThread);

  std::map<std::int64_t, std::int64_t> last_seq;  // thread -> last seen seq
  for (const TraceEvent& e : t.events()) {
    ASSERT_EQ(e.n_args, 2);
    const std::int64_t tid = e.args[0].second;
    const std::int64_t seq = e.args[1].second;
    const auto it = last_seq.find(tid);
    if (it != last_seq.end())
      EXPECT_LT(it->second, seq) << "thread " << tid << " events out of order";
    last_seq[tid] = seq;
  }
}

// ------------------------------------------------------ telemetry exporter --

TEST(TelemetryExporter, DueIsImmediateAtFirstThenFollowsThePeriod) {
  TelReset reset;
  TelemetryConfig cfg;
  cfg.period_us = 1000;
  TelemetryExporter exp(cfg);
  EXPECT_TRUE(exp.due(5));  // never flushed: due immediately
  exp.flush(5);
  EXPECT_FALSE(exp.due(5 + 999));
  EXPECT_TRUE(exp.due(5 + 1000));
}

TEST(TelemetryExporter, DeltaRecordsSumExactlyToTheFinalSnapshot) {
  TelReset reset;
  set_metrics_enabled(true);
  const std::string path = ::testing::TempDir() + "mupod_tel_unit.jsonl";
  std::remove(path.c_str());

  TelemetryConfig cfg;
  cfg.jsonl_path = path;
  TelemetryExporter exp(cfg);

  metrics().counter("telt.alpha.count").add(3);
  metrics().histogram("telt.lat.ms", {1.0, 10.0}).record(0.5);
  exp.flush(1000);

  metrics().counter("telt.alpha.count").add(4);
  metrics().counter("telt.beta.count").add(7);
  metrics().gauge("telt.depth.now").set(11);
  metrics().histogram("telt.lat.ms", {1.0, 10.0}).record(5.0);
  metrics().histogram("telt.lat.ms", {1.0, 10.0}).record(20.0);
  exp.flush(2000);

  metrics().counter("telt.beta.count").add(1);
  exp.flush(3000);

  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(exp.records_written(), 3);
  EXPECT_EQ(exp.io_errors(), 0);

  std::map<std::string, std::int64_t> sums;
  std::int64_t hist_count = 0;
  for (const std::string& line : lines) {
    EXPECT_TRUE(json_well_formed(line)) << line;
    for (const auto& [name, delta] : parse_int_object(line, "counters")) sums[name] += delta;
    hist_count += histogram_count_delta(line, "telt.lat.ms");
  }
  // Zero deltas are omitted: the last record only moved beta.
  EXPECT_EQ(lines[2].find("telt.alpha.count"), std::string::npos);
  EXPECT_NE(lines[2].find("telt.beta.count"), std::string::npos);
  // Gauges export current values, not deltas.
  EXPECT_NE(lines[1].find("\"telt.depth.now\":11"), std::string::npos);

  // The exactness contract: integrate the series, land on the snapshot.
  const MetricsSnapshot snap = exp.last_snapshot();
  std::map<std::string, std::int64_t> want;
  for (const auto& c : snap.counters)
    if (c.value != 0) want[c.name] = c.value;
  EXPECT_EQ(sums, want);
  for (const auto& h : snap.histograms)
    if (h.name == "telt.lat.ms") EXPECT_EQ(hist_count, h.count);
  std::remove(path.c_str());
}

TEST(TelemetryExporter, PrometheusTextManglesNamesAndEmitsCumulativeBuckets) {
  TelReset reset;
  set_metrics_enabled(true);
  metrics().counter("telt.req.ok").add(5);
  metrics().gauge("telt.depth.now").set(-2);
  HistogramMetric& h = metrics().histogram("telt.lat.ms", {1.0, 10.0});
  h.record(0.5);
  h.record(5.0);
  h.record(50.0);

  const std::string text = TelemetryExporter::prometheus_text(metrics().snapshot());
  EXPECT_NE(text.find("# TYPE mupod_telt_req_ok counter"), std::string::npos);
  EXPECT_NE(text.find("mupod_telt_req_ok 5"), std::string::npos);
  EXPECT_NE(text.find("mupod_telt_depth_now -2"), std::string::npos);
  // Cumulative buckets: le="1" holds 1, le="10" holds 2, +Inf holds all 3.
  EXPECT_NE(text.find("mupod_telt_lat_ms_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("mupod_telt_lat_ms_bucket{le=\"10\"} 2"), std::string::npos);
  EXPECT_NE(text.find("mupod_telt_lat_ms_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("mupod_telt_lat_ms_count 3"), std::string::npos);
  EXPECT_NE(text.find("mupod_telt_lat_ms_sum "), std::string::npos);
}

TEST(TelemetryExporter, BackgroundThreadFlushesAndStopWritesTheFinalRecord) {
  TelReset reset;
  set_metrics_enabled(true);
  const std::string path = ::testing::TempDir() + "mupod_tel_bg.jsonl";
  std::remove(path.c_str());

  TelemetryConfig cfg;
  cfg.jsonl_path = path;
  cfg.period_us = 2000;  // 2 ms
  TelemetryExporter exp(cfg);
  exp.start();
  metrics().counter("telt.bg.count").add(9);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  exp.stop();  // idempotent; joins and flushes the final record
  exp.stop();

  EXPECT_GE(exp.records_written(), 2);  // at least one periodic + the final
  EXPECT_EQ(exp.io_errors(), 0);
  const std::vector<std::string> lines = read_lines(path);
  EXPECT_EQ(static_cast<std::int64_t>(lines.size()), exp.records_written());
  std::int64_t sum = 0;
  for (const std::string& line : lines) {
    EXPECT_TRUE(json_well_formed(line)) << line;
    sum += parse_int_object(line, "counters")["telt.bg.count"];
  }
  EXPECT_EQ(sum, 9);  // the final flush caught everything
  std::remove(path.c_str());
}

// --------------------------------------------------------- flight recorder --

RequestRecord make_record(std::uint64_t id, std::int64_t t_us, bool ok = true) {
  RequestRecord r;
  r.request_id = id;
  r.trace_id = id * 1000;
  r.source = "infer";
  r.status = ok ? "ok" : "deadline_exceeded";
  r.ok = ok;
  r.deadline_hit = !ok;
  r.total_us = 100;
  r.t_us = t_us;
  return r;
}

TEST(FlightRecorder, ShardRingRetainsNewestAndCountsOverwrites) {
  FlightRecorderConfig cfg;
  cfg.capacity_per_shard = 4;
  cfg.on_deadline_exceeded = false;
  FlightRecorder fr(cfg);

  // Single thread -> single shard: total retention is one ring.
  for (int i = 1; i <= 10; ++i) fr.record(make_record(static_cast<std::uint64_t>(i), i));
  EXPECT_EQ(fr.recorded(), 10);
  EXPECT_EQ(fr.overwritten(), 6);

  const std::vector<RequestRecord> recs = fr.recent();
  ASSERT_EQ(recs.size(), 4u);
  for (std::size_t i = 0; i < recs.size(); ++i)
    EXPECT_EQ(recs[i].request_id, 7 + i);  // newest 4, oldest first

  fr.clear();
  EXPECT_EQ(fr.recorded(), 0);
  EXPECT_TRUE(fr.recent().empty());
}

TEST(FlightRecorder, DeadlineTriggerWritesBoundedIncidentBundles) {
  const std::string dir = ::testing::TempDir() + "mupod_fr_unit";
  std::filesystem::remove_all(dir);

  FlightRecorderConfig cfg;
  cfg.incident_dir = dir;
  cfg.max_incidents = 2;
  FlightRecorder fr(cfg);

  fr.record(make_record(1, 10));
  fr.record(make_record(2, 20, /*ok=*/false));  // incident 0
  fr.record(make_record(3, 30, /*ok=*/false));  // incident 1
  fr.record(make_record(4, 40, /*ok=*/false));  // over the bound: suppressed

  EXPECT_EQ(fr.incidents_written(), 2);
  EXPECT_EQ(fr.incidents_suppressed(), 1);

  const std::vector<IncidentInfo> incidents = fr.incidents();
  ASSERT_EQ(incidents.size(), 2u);
  for (const IncidentInfo& info : incidents) {
    EXPECT_EQ(info.trigger, "deadline_exceeded");
    ASSERT_FALSE(info.path.empty());
    EXPECT_TRUE(std::filesystem::exists(info.path));
    const std::string bundle = read_file(info.path);
    EXPECT_TRUE(json_well_formed(bundle)) << info.path;
    EXPECT_NE(bundle.find("\"incident\""), std::string::npos);
    EXPECT_NE(bundle.find("\"records\""), std::string::npos);
    EXPECT_NE(bundle.find("\"spans\""), std::string::npos);
    EXPECT_NE(bundle.find("\"metric_deltas\""), std::string::npos);
    EXPECT_NE(bundle.find("\"trigger\":\"deadline_exceeded\""), std::string::npos);
  }
  std::filesystem::remove_all(dir);
}

TEST(FlightRecorder, SlowRequestThresholdTriggersAndExternalTriggerIsHonored) {
  FlightRecorderConfig cfg;
  cfg.slow_request_ms = 1.0;
  FlightRecorder fr(cfg);  // no incident_dir: triggers evaluate, nothing written

  RequestRecord r = make_record(1, 10);
  r.total_us = 500;  // under threshold
  fr.record(r);
  EXPECT_EQ(fr.incidents_written(), 0);
  r.total_us = 5000;  // 5 ms > 1 ms
  fr.record(r);
  EXPECT_EQ(fr.incidents_written(), 1);
  ASSERT_EQ(fr.incidents().size(), 1u);
  EXPECT_EQ(fr.incidents()[0].trigger, "slow_request");
  EXPECT_TRUE(fr.incidents()[0].path.empty());  // nothing on disk

  fr.incident("breaker_open", "node 2 circuit breaker closed -> open");
  EXPECT_EQ(fr.incidents_written(), 2);
  EXPECT_EQ(fr.incidents()[1].trigger, "breaker_open");
  EXPECT_TRUE(json_well_formed(fr.incident_bundle_json(fr.incidents()[1])));
}

// -------------------------------------------------- chaos acceptance sweep --

struct ChaosFixture {
  ZooModel model;
  std::unique_ptr<SyntheticImageDataset> dataset;
};

const ChaosFixture& chaos_fixture() {
  static ChaosFixture* f = [] {
    auto* fx = new ChaosFixture();
    ZooOptions zo;
    zo.num_classes = 10;
    zo.seed = 606;
    zo.data_seed = 8;
    zo.calibration_images = 8;
    zo.head_images = 0;
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

PlanServiceConfig chaos_service_config() {
  PlanServiceConfig scfg;
  scfg.pipeline.harness.profile_images = 8;
  scfg.pipeline.harness.eval_images = 64;
  scfg.pipeline.profiler.points = 5;
  return scfg;
}

// Patient everywhere except the chaos knobs under test: quick hedges, a
// short attempt timeout so a killed node's parked dispatch becomes a
// breaker failure within the test, and a threshold-1 breaker.
ClusterConfig chaos_cluster_config() {
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.replicas = 2;
  cfg.node_threads = 2;
  cfg.attempt_timeout_us = 400'000;
  cfg.hedge_delay_us = 25'000;
  cfg.deadline_us = 60'000'000;
  cfg.max_attempts = 6;
  cfg.breaker.failure_threshold = 1;
  cfg.breaker.cooldown_us = 60'000'000;  // stays open; no flapping mid-test
  // Weights 10^6 : 10^3 : 1 pin the lower-id replica as every query's
  // primary, whatever load counts a busy host leaves stale.
  cfg.node_weights = {1e6, 1e3, 1.0};
  return cfg;
}

TEST(TelemetryChaos, EveryRequestHasAConnectedTraceOrATerminalFlightRecord) {
  TelReset reset;
  const ChaosFixture& f = chaos_fixture();

  const std::string incident_dir = ::testing::TempDir() + "mupod_chaos_incidents";
  const std::string jsonl_path = ::testing::TempDir() + "mupod_chaos_tel.jsonl";
  std::filesystem::remove_all(incident_dir);
  std::remove(jsonl_path.c_str());

  set_metrics_enabled(true);
  FlightRecorderConfig fcfg;
  fcfg.incident_dir = incident_dir;
  fcfg.max_incidents = 6;
  flight_recorder().configure(fcfg);
  set_flight_recording_enabled(true);

  TelemetryConfig tcfg;
  tcfg.jsonl_path = jsonl_path;
  TelemetryExporter exporter(tcfg);
  std::int64_t tel_now = 0;
  exporter.flush(tel_now += 1'000'000);  // baseline record

  // --- cluster leg: straggler + hedge, then a node kill -------------------
  ClusterController cluster(chaos_cluster_config(), chaos_service_config());
  const PlanKey key = cluster.register_network(f.model.net, f.model.analyzed, *f.dataset);
  const PlanQuery q = [&] {
    PlanQuery query;
    query.accuracy_target = 0.02;
    query.objective = objective_input_bits(f.model.net, f.model.analyzed);
    return query;
  }();
  // Warm every replica's own PlanService (bypassing the router) so the
  // chaos queries only exercise the memoized path — then start tracing,
  // so the warm pipelines can't wrap the ring over the request events.
  cluster.replicate_profile(key);
  for (int id : cluster.replicas_for_hash(key.net_hash)) cluster.node(id).service().plan(key, q);
  set_tracing_enabled(true);

  std::vector<ClusterQueryResult> cluster_results;
  cluster_results.push_back(cluster.plan(key, q));
  ASSERT_TRUE(cluster_results[0].ok) << cluster_results[0].error;

  // Straggler: stall the pinned primary far past the hedge delay; the
  // hedge to the other replica must win.
  const std::vector<int> replicas = cluster.replicas_for_hash(key.net_hash);
  const int primary = *std::min_element(replicas.begin(), replicas.end());
  FaultSchedule stall;
  stall.kind = FaultKind::kDelay;
  stall.delay_us = 3'000'000;
  cluster.faults().arm(cluster.node(primary).fault_point(), stall);
  cluster_results.push_back(cluster.plan(key, q));
  cluster.faults().disarm(cluster.node(primary).fault_point());
  ASSERT_TRUE(cluster_results[1].ok) << cluster_results[1].error;
  EXPECT_GE(cluster_results[1].hedges, 1);
  EXPECT_TRUE(cluster_results[1].hedge_won);
  exporter.flush(tel_now += 1'000'000);

  // Kill the primary; it stays first choice, so every query parks a
  // dispatch on it and must fail over to the surviving replica.
  const int victim = primary;
  cluster.kill_node(victim);
  for (int i = 0; i < 4; ++i) {
    cluster_results.push_back(cluster.plan(key, q));
    ASSERT_TRUE(cluster_results.back().ok) << cluster_results.back().error;
    EXPECT_NE(cluster_results.back().node, victim);
  }
  // Let the parked dispatches cross the attempt deadline, then sweep: the
  // timeout becomes a breaker failure, the breaker opens, and the
  // on_transition hook dumps a breaker_open incident.
  std::this_thread::sleep_for(
      std::chrono::microseconds(cluster.config().attempt_timeout_us + 100'000));
  cluster.sweep_pending();
  exporter.flush(tel_now += 1'000'000);

  // --- infer leg: batched serving with deadline-doomed requests ------------
  InferenceServerConfig icfg;
  icfg.batch.max_batch = 4;
  icfg.batch.max_wait_us = 2000;
  icfg.max_queue = 64;
  InferenceServer server(icfg);
  server.register_model("tiny", f.model.net, f.model.analyzed);
  server.start();

  std::vector<std::future<InferenceResult>> futs;
  for (int i = 0; i < 24; ++i) {
    Tensor img(Shape({1, 3, 16, 16}));
    f.dataset->render_image(i, img, 0);
    InferOptions opts;
    if (i % 6 == 5) opts.deadline_us = 1;  // doomed: expires before any batch cuts
    futs.push_back(server.submit(std::move(img), opts));
  }
  std::vector<InferenceResult> infer_results;
  for (auto& fu : futs) infer_results.push_back(fu.get());
  server.stop();
  exporter.flush(tel_now += 1'000'000);

  // --- acceptance: every request -> connected trace OR failure record -----
  const std::vector<TraceEvent> events = tracer().events();
  EXPECT_EQ(tracer().dropped(), 0);  // the ring held the whole chaos run
  std::map<std::uint64_t, std::set<char>> phases_by_trace;
  for (const TraceEvent& e : events)
    if (e.ctx.valid()) phases_by_trace[e.ctx.trace_id].insert(e.ph);

  const std::string chrome = tracer().chrome_trace_json();
  EXPECT_TRUE(json_well_formed(chrome));

  const auto expect_connected = [&](std::uint64_t trace_id, const char* what) {
    ASSERT_NE(trace_id, 0u) << what;
    const auto it = phases_by_trace.find(trace_id);
    ASSERT_NE(it, phases_by_trace.end()) << what;
    // A connected lane: async begin + end, a flow arrow, and at least one
    // complete span, all sharing one trace id.
    EXPECT_TRUE(it->second.count('b')) << what;
    EXPECT_TRUE(it->second.count('e')) << what;
    EXPECT_TRUE(it->second.count('s') || it->second.count('t') || it->second.count('f')) << what;
    // And the Chrome export carries the same lane under the hex id.
    EXPECT_NE(chrome.find("\"id\":\"" + hex_id(trace_id) + "\""), std::string::npos) << what;
  };

  const std::vector<RequestRecord> records = flight_recorder().recent();
  for (const ClusterQueryResult& r : cluster_results) {
    expect_connected(r.trace_id, "cluster query");
    const auto rec = std::find_if(records.begin(), records.end(), [&](const RequestRecord& x) {
      return x.trace_id == r.trace_id && std::string(x.source) == "cluster";
    });
    ASSERT_NE(rec, records.end());  // every query leaves a terminal record
    EXPECT_EQ(rec->ok, r.ok);
    EXPECT_NE(std::string(rec->status), "");
  }
  // The hedged query's lane carries the hedge milestones.
  {
    const std::uint64_t hedged = cluster_results[1].trace_id;
    bool saw_hedge = false, saw_attempt = false;
    for (const TraceEvent& e : events) {
      if (!e.ctx.valid() || e.ctx.trace_id != hedged) continue;
      if (e.name == "cluster.hedge" || e.name == "cluster.hedge_won") saw_hedge = true;
      if (e.name == "cluster.attempt") saw_attempt = true;
    }
    EXPECT_TRUE(saw_hedge);
    EXPECT_TRUE(saw_attempt);
  }

  int failed_infer = 0;
  for (const InferenceResult& r : infer_results) {
    expect_connected(r.trace_id, "infer request");
    const auto rec = std::find_if(records.begin(), records.end(), [&](const RequestRecord& x) {
      return x.request_id == r.id && std::string(x.source) == "infer";
    });
    ASSERT_NE(rec, records.end());
    if (r.status != InferStatus::kOk) {
      // The disjunction's second arm: a terminal failure record naming
      // the status, flagged as a deadline hit when it was one.
      ++failed_infer;
      EXPECT_FALSE(rec->ok);
      EXPECT_EQ(std::string(rec->status), infer_status_name(r.status));
      if (r.status == InferStatus::kExpiredInQueue || r.status == InferStatus::kDeadlineExceeded)
        EXPECT_TRUE(rec->deadline_hit);
    } else {
      EXPECT_TRUE(rec->ok);
      EXPECT_GE(rec->batch_id, 0);
    }
  }
  EXPECT_GE(failed_infer, 1);  // the doomed deadlines actually failed

  // Incidents: the kill tripped a breaker and the doomed requests missed
  // deadlines; every written bundle is valid JSON on disk.
  std::set<std::string> triggers;
  for (const IncidentInfo& info : flight_recorder().incidents()) {
    triggers.insert(info.trigger);
    if (!info.path.empty()) {
      const std::string bundle = read_file(info.path);
      EXPECT_TRUE(json_well_formed(bundle)) << info.path;
      EXPECT_NE(bundle.find("\"records\""), std::string::npos);
    }
  }
  EXPECT_TRUE(triggers.count("breaker_open")) << "breaker open never dumped an incident";
  EXPECT_TRUE(triggers.count("deadline_exceeded"));

  // Exporter exactness across the whole run: the JSONL series integrates
  // to the final snapshot, counter for counter.
  std::map<std::string, std::int64_t> sums;
  std::int64_t latency_count = 0;
  const std::vector<std::string> lines = read_lines(jsonl_path);
  ASSERT_EQ(static_cast<std::int64_t>(lines.size()), exporter.records_written());
  for (const std::string& line : lines) {
    EXPECT_TRUE(json_well_formed(line));
    for (const auto& [name, delta] : parse_int_object(line, "counters")) sums[name] += delta;
    latency_count += histogram_count_delta(line, "infer.latency.ms");
  }
  const MetricsSnapshot snap = exporter.last_snapshot();
  std::map<std::string, std::int64_t> want;
  for (const auto& c : snap.counters)
    if (c.value != 0) want[c.name] = c.value;
  EXPECT_EQ(sums, want);
  for (const auto& h : snap.histograms)
    if (h.name == "infer.latency.ms") EXPECT_EQ(latency_count, h.count);

  std::filesystem::remove_all(incident_dir);
  std::remove(jsonl_path.c_str());
}

}  // namespace
}  // namespace mupod

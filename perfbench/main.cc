// presto_perfbench: the PRESTO end-to-end and per-layer benchmark.
//
//   presto_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-out <file>] [--quick]
//                    [--perturb now|past|range|source|sum|fed]
//                    [--flash-blocks <n>] [--window-hours <h>] [--events-per-day <x>]
//
// One run repeats whole *rounds* of one workload until `--seconds` have passed.
// A round builds the world from the seed, starts it and warms it up (set-up), runs
// the timed simulated window, drains every query still in flight, and checks every
// answer. All rounds of a run share the seed, so their simulated results must be
// bit-identical; host times are reported as medians over rounds.
//
// Output: one JSON host record (CPU, nproc, build type, fingerprints, checks),
// then, as the last line, {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 rounds alternate
// untraced/traced and the metrics are the per-layer ones, plus the tracing
// overhead. The exit code is non-zero when any output check fails.
//
// The benchmark reaches the program only through public entry points: Deployment
// (construction, Start, RunUntil, QueryAsync, the MeasureFactory hook, stats
// accessors), Federation and its mode-independent facade, and the leaf layers'
// public functions for the replay timings (replay.h).

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/replay.h"
#include "perfbench/trace.h"
#include "src/core/deployment.h"
#include "src/core/federation.h"
#include "src/util/stats.h"
#include "src/workload/queries.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace presto;

// ---------------------------------------------------------------------------
// Workloads

enum class Kind { kCell, kFederation };

struct Workload {
  std::string name;
  Kind kind = Kind::kCell;
  DeploymentConfig cell;     // the single cell, or the federation's cell template
  QueryWorkloadParams mix;   // one query stream (per cell for federations)
  Duration warmup = 0;       // simulated set-up before the timed window
  Duration window = 0;       // the timed simulated window
  Duration drain = 0;        // untimed tail that lets in-flight queries finish
  int num_cells = 0;         // federations only
  int cell_threads = 1;
  int cell_processes = 1;
};

constexpr int kFedCells = 8;
constexpr uint64_t kDeploymentSeed = 0x5eed0001ull;
// The warm-up and the timed window each run as this many equal segments. setup_s
// and run_s sum, over pieces, the median across rounds of each piece's host time:
// every round runs the same pieces, and a burst of host noise then spoils one
// piece of one round instead of the whole round.
constexpr int kSegments = 8;
const Duration kTrunkLatency = Millis(250);

Workload MakeWorkload(const std::string& name, uint64_t seed, bool quick) {
  Workload w;
  w.name = name;
  // The system under test is one fixed deployment, as a testbed would be: its world
  // (temperature field), index structure, clocks and radio come from a constant
  // seed. --seed draws the users' query streams. A deployment-seeded skip graph
  // alone moves every routed latency by +-15% from one seed to the next, which
  // would swamp the comparison of two commits.
  w.cell.seed = kDeploymentSeed;
  w.mix.seed = 0x9e37ull * (seed + 1);
  // No transient anomalies: during an anomaly's ramp a NOW cache hit can lag the
  // truth by more than its tolerance allows (see README, "Known faults"), which
  // fails the NOW check on some seeds only. --events-per-day restores them.
  w.cell.field.events_per_day = 0.0;
  if (name == "sensing_day") {
    // Sensor tier dominates: 512 sensors with model-driven push and 32 KiB of
    // flash each. Proxies fit models after 26 h of training, so the warm-up ends
    // just before the first fits and the window covers the sensors' model checks
    // and the archive aging that starts as flash fills.
    w.cell.num_proxies = 4;
    w.cell.sensors_per_proxy = 128;
    w.cell.flash.num_blocks = 8;
    w.mix.queries_per_hour = 2400;
    w.mix.past_fraction = 0.3;
    w.mix.min_tolerance = 0.3;
    w.mix.max_tolerance = 2.0;
    w.warmup = Hours(25);
    w.window = quick ? Hours(2) : Hours(8);
    w.drain = Minutes(15);
  } else if (name == "query_storm") {
    // Proxy tier and routing dominate: few sensors, fitted models (2-day warm-up),
    // and a dense NOW/PAST query stream.
    w.cell.num_proxies = 4;
    w.cell.sensors_per_proxy = 32;
    w.cell.flash.num_blocks = 64;
    w.mix.queries_per_hour = 200000;
    w.mix.past_fraction = 0.3;
    w.mix.min_tolerance = 0.1;
    w.mix.max_tolerance = 2.0;
    w.warmup = Days(2);
    w.window = quick ? Minutes(6) : Hours(1);
    w.drain = Minutes(15);
  } else if (name == "federation_threads" || name == "federation_procs") {
    // Federation barrier dominates: 8 small cells on 250 ms trunks (4 barriers per
    // simulated second), one query stream per cell over the whole namespace.
    w.kind = Kind::kFederation;
    w.num_cells = kFedCells;
    w.cell.num_proxies = 2;
    w.cell.sensors_per_proxy = 128;
    w.cell.flash.num_blocks = 16;
    w.cell.enable_replication = true;
    w.cell.replication_factor = 2;
    w.cell.pull_timeout = Seconds(30);
    w.cell.lane_engine = true;
    w.cell.sim_threads = 1;
    w.cell.sim_epoch = kTrunkLatency;
    w.mix.queries_per_hour = 800;
    w.mix.past_fraction = 0.2;
    w.mix.mean_past_age = Minutes(30);
    w.mix.max_past_age = Hours(1);
    w.mix.min_tolerance = 0.5;
    w.mix.max_tolerance = 2.0;
    w.warmup = Hours(1);
    w.window = quick ? Minutes(20) : Hours(2);
    w.drain = Minutes(2);
    // Two threads or two worker processes: with four, a parallel epoch needs
    // every core of a 4-core host, and any other load on it doubled the
    // federation_procs run time from one run to the next.
    const int cores = std::max(1u, std::thread::hardware_concurrency());
    if (name == "federation_threads") {
      w.cell_threads = std::min(2, cores);
    } else {
      w.cell_processes = 2;
    }
  } else {
    w.name.clear();
  }
  return w;
}

FederationConfig FedConfig(const Workload& w, bool sequential) {
  FederationConfig config;
  config.num_cells = w.num_cells;
  config.cell = w.cell;
  config.link.latency = kTrunkLatency;
  config.epoch = Seconds(1);
  config.auto_epoch = true;
  config.cell_threads = sequential ? 1 : w.cell_threads;
  config.cell_processes = sequential ? 1 : w.cell_processes;
  config.seed = w.cell.seed;
  return config;
}

QueryWorkloadParams CellStreamMix(const Workload& w, int cell) {
  QueryWorkloadParams mix = w.mix;
  mix.num_sensors = 0;  // the whole federation namespace
  mix.seed = w.mix.seed ^ (0xd1e5ull + static_cast<uint64_t>(cell));
  return mix;
}

// ---------------------------------------------------------------------------
// Answer checks. Every bound is computed from the world model and the method's own
// guarantees, never from a recorded output.

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  bool quick = false;
  // "now" | "past" | "range" | "source" | "sum" | "fed": corrupt one result
  // (self-test).
  std::string perturb;
  int flash_blocks = 0;
  double events_per_day = -1.0;  // < 0: the workload's own setting
  double window_hours = 0.0;     // > 0: overrides the timed window
};

constexpr double kPushThreshold = 0.5;  // DeploymentConfig::model_tolerance default

struct Tally {
  uint64_t issued = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  std::array<uint64_t, 4> by_source{};
  SampleSet latency_ms;
  double energy_j = 0.0;
  double now_err_sum = 0.0;
  uint64_t now_n = 0;
  double past_err_sum = 0.0;
  uint64_t past_n = 0;
  uint64_t past_model_answers = 0;
  uint64_t past_model_answers_over = 0;  // a sample beyond tolerance + 1.1 C
  uint64_t violations = 0;
  std::vector<std::string> messages;
  double check_ns = 0.0;  // host time spent checking, excluded from run_s

  void Violation(const std::string& what) {
    ++violations;
    if (messages.size() < 8) {
      messages.push_back(what);
    }
  }
};

struct Checker {
  TemperatureField* field = nullptr;
  double noise_std = 0.12;
  Duration sync_slack = 0;
  std::string perturb;  // cleared once one answer has been corrupted

  double Bound(double tolerance) const {
    return tolerance + kPushThreshold + 5.0 * noise_std;
  }

  // One completed (or failed) answer for field node `node`.
  void Check(Tally& t, int node, bool past, TimeInterval range, double tolerance,
             SimTime issued_at, const QueryAnswer& answer_in, Duration latency) {
    const int64_t t0 = NowNs();
    if (!answer_in.status.ok()) {
      ++t.failed;
      t.check_ns += static_cast<double>(NowNs() - t0);
      return;
    }
    ++t.completed;
    const bool exact_source = answer_in.source == AnswerSource::kCacheHit ||
                              answer_in.source == AnswerSource::kSensorPull;
    // Self-test: corrupt the first answer the perturbation applies to.
    const QueryAnswer* answer = &answer_in;
    QueryAnswer perturbed;
    size_t source = static_cast<size_t>(answer_in.source) & 3;
    const bool has_samples = past && !answer_in.samples.empty();
    if ((perturb == "now" && !past) || (perturb == "past" && has_samples && exact_source) ||
        (perturb == "range" && has_samples)) {
      perturbed = answer_in;
      if (perturb == "now") {
        perturbed.value += 10.0;
      } else if (perturb == "past") {
        perturbed.samples.front().value += 10.0;
      } else {
        perturbed.samples.front().t = range.start - Hours(6);
      }
      answer = &perturbed;
      perturb.clear();
    } else if (perturb == "source" && answer_in.source == AnswerSource::kCacheHit) {
      source = static_cast<size_t>(AnswerSource::kExtrapolated);
      perturb.clear();
    } else if (perturb == "sum") {
      source = 3;  // counted as failed although it completed
      perturb.clear();
    }
    ++t.by_source[source];
    t.latency_ms.Add(ToMillis(latency));
    t.energy_j += answer_in.energy_j;
    if (!past) {
      const double err = std::fabs(answer->value - field->TruthAt(node, issued_at));
      t.now_err_sum += err;
      ++t.now_n;
      if (err > Bound(tolerance)) {
        t.Violation("NOW answer off by " + std::to_string(err) + " C (tolerance " +
                    std::to_string(tolerance) + ", source " +
                    AnswerSourceName(answer->source) + ")");
      }
    } else {
      SimTime prev = range.start - sync_slack;
      bool over = false;
      for (const Sample& s : answer->samples) {
        if (s.t < range.start - sync_slack || s.t > range.end + sync_slack) {
          t.Violation("PAST sample outside its requested range");
        }
        if (s.t < prev) {
          t.Violation("PAST samples out of time order");
        }
        prev = s.t;
        const double err = std::fabs(s.value - field->TruthAt(node, s.t));
        t.past_err_sum += err;
        ++t.past_n;
        if (err > Bound(tolerance)) {
          over = true;
          if (exact_source) {
            t.Violation("PAST sample off by " + std::to_string(err) + " C (tolerance " +
                        std::to_string(tolerance) + ", source " +
                        AnswerSourceName(answer->source) + ")");
          }
        }
      }
      if (answer->source == AnswerSource::kExtrapolated) {
        ++t.past_model_answers;
        t.past_model_answers_over += over ? 1 : 0;
      }
    }
    t.check_ns += static_cast<double>(NowNs() - t0);
  }
};

// ---------------------------------------------------------------------------
// Per-layer counters, read through the stats accessors.

using Counters = std::map<std::string, double>;

void AddCell(Deployment& d, Counters& c) {
  const DeploymentConfig& cfg = d.config();
  for (int p = 0; p < cfg.num_proxies; ++p) {
    for (int s = 0; s < cfg.sensors_per_proxy; ++s) {
      SensorNode& sn = d.sensor(p, s);
      const SensorNode::Stats& st = sn.stats();
      c["sensor.samples"] += static_cast<double>(st.samples);
      c["sensor.model_checks"] += static_cast<double>(st.model_checks);
      c["sensor.pushes"] += static_cast<double>(st.pushes);
      c["sensor.suppressed"] += static_cast<double>(st.suppressed);
      const ArchiveStats& as = sn.archive().stats();
      c["flash.records_appended"] += static_cast<double>(as.records_appended);
      c["flash.records_read"] += static_cast<double>(as.records_read);
      c["flash.aging_passes"] += static_cast<double>(as.aging_passes);
      c["flash.appends_rejected"] += static_cast<double>(as.appends_rejected);
      // The device counts are private to the sensor; its meter charges a fixed
      // energy per page operation, so the counts are recovered from the meter.
      const EnergyMeter& m = sn.meter();
      c["flash.page_reads"] += std::round(m.Component(EnergyComponent::kFlashRead) /
                                          cfg.flash.read_page_energy_j);
      c["flash.page_writes"] += std::round(m.Component(EnergyComponent::kFlashWrite) /
                                           cfg.flash.write_page_energy_j);
      c["flash.block_erases"] += std::round(m.Component(EnergyComponent::kFlashErase) /
                                            cfg.flash.erase_block_energy_j);
    }
    const ProxyStats& ps = d.proxy(p).stats();
    c["proxy.queries"] += static_cast<double>(ps.queries);
    c["proxy.cache_hits"] += static_cast<double>(ps.cache_hits);
    c["proxy.extrapolations"] += static_cast<double>(ps.extrapolations);
    c["proxy.pulls"] += static_cast<double>(ps.pulls);
    c["proxy.coalesced_pulls"] += static_cast<double>(ps.coalesced_pulls);
    c["proxy.pull_timeouts"] += static_cast<double>(ps.pull_timeouts);
    c["proxy.model_sends"] += static_cast<double>(ps.model_sends);
  }
  const NetStats& ns = d.net().stats();
  c["net.messages_sent"] += static_cast<double>(ns.messages_sent);
  c["net.frames_sent"] += static_cast<double>(ns.frames_sent);
  c["net.frame_retries"] += static_cast<double>(ns.frame_retries);
  c["net.batch_flushes"] += static_cast<double>(ns.batch_flushes);
  c["net.cross_lane_sends"] += static_cast<double>(ns.cross_lane_sends);
  const UnifiedStoreStats& us = d.store().stats();
  c["store.queries"] += static_cast<double>(us.queries);
  c["store.hops"] += static_cast<double>(us.total_index_hops);
}

Counters Delta(const Counters& end, const Counters& start) {
  Counters out = end;
  for (const auto& [k, v] : start) {
    out[k] -= v;
  }
  return out;
}

// ---------------------------------------------------------------------------
// One round.

struct Round {
  bool traced = false;
  double build_s = 0.0;
  double warmup_s = 0.0;
  double run_s = 0.0;
  uint64_t events = 0;
  std::vector<double> setup_part_s;  // build, start, and each eighth of the warm-up
  std::vector<double> segment_s;     // host seconds of each eighth of the window
  std::vector<double> route_us;   // traced: host time of each QueryAsync call
  std::vector<double> epoch_us;   // traced: host time of each federation epoch
  uint64_t fingerprint = 0;
  uint64_t histogram = 0;
  Tally tally;
  double j_per_sensor_day = 0.0;
  Counters layers;  // deltas over the timed window
  Counters drained;  // deltas from the window start to the end of the drain
  uint64_t measure_calls = 0;
  double measure_ns = 0.0;
  // Federation.
  FederationStats fed;
  FederationTrunkTotals trunks;
  // Leaf replays (traced single-cell rounds; the federation's sequential replay).
  double predict_ns = 0.0, fit_ns = 0.0, coverage_ns = 0.0;
  std::unique_ptr<SpanRecorder> spans;
};

double SecondsOf(int64_t ns) { return static_cast<double>(ns) / 1e9; }

Checker MakeChecker(const Workload& w, const Options& opt, TemperatureField* field) {
  Checker ck;
  ck.field = field;
  ck.noise_std = w.cell.field.noise_std_c;
  // Archived samples carry the sensor's clock, corrected by the proxy's time sync;
  // allow one sensing period plus the largest initial clock offset.
  ck.sync_slack = w.cell.sensing_period + w.cell.max_clock_offset;
  ck.perturb = opt.perturb;
  return ck;
}

// World-model reads through the MeasureFactory hook: every call counted, every 16th
// timed (one span per sample would be millions).
struct MeasureProbe {
  Deployment* dep = nullptr;
  uint64_t calls = 0;
  uint64_t timed = 0;
  int64_t timed_ns = 0;
};

Round RunCellRound(const Workload& w, const Options& opt, bool traced) {
  Round r;
  r.traced = traced;
  SpanRecorder* tr = nullptr;
  if (traced) {
    r.spans = std::make_unique<SpanRecorder>();
    tr = r.spans.get();
  }
  QueryWorkloadParams mix = w.mix;
  mix.num_sensors = w.cell.num_proxies * w.cell.sensors_per_proxy;
  const TimeInterval window{w.warmup, w.warmup + w.window};
  const std::vector<QueryRequest> queries = GenerateQueries(mix, window);

  MeasureProbe probe;
  ScopedSpan round_span(tr, "round", -1);
  const int root = round_span.id();
  const int64_t t0 = NowNs();
  std::unique_ptr<Deployment> dep;
  {
    ScopedSpan s(tr, "build", root);
    if (traced) {
      // Reads the deployment's own field, as the default factory does; sensors
      // only measure after Start(), when `dep` is set.
      MeasureProbe* pr = &probe;
      dep = std::make_unique<Deployment>(w.cell, [pr](int g) -> SensorNode::MeasureFn {
        return [pr, g](SimTime t) {
          if ((pr->calls++ & 15) != 0) {
            return pr->dep->field().MeasureAt(g, t);
          }
          const int64_t a = NowNs();
          const double v = pr->dep->field().MeasureAt(g, t);
          pr->timed_ns += NowNs() - a;
          ++pr->timed;
          return v;
        };
      });
      probe.dep = dep.get();
    } else {
      dep = std::make_unique<Deployment>(w.cell);
    }
  }
  const int64_t t_built = NowNs();
  {
    ScopedSpan s(tr, "start", root);
    dep->Start();
  }
  r.setup_part_s = {SecondsOf(t_built - t0), SecondsOf(NowNs() - t_built)};
  for (int k = 0; k < kSegments; ++k) {
    ScopedSpan s(tr, "warmup", root);
    const int64_t h0 = NowNs();
    dep->RunUntil(w.warmup / kSegments * (k + 1));
    r.setup_part_s.push_back(SecondsOf(NowNs() - h0));
  }
  const int64_t t_warm = NowNs();
  r.build_s = SecondsOf(t_built - t0);
  r.warmup_s = SecondsOf(t_warm - t_built);

  Checker ck = MakeChecker(w, opt, &dep->field());
  const double e0 = dep->MeanSensorEnergy();
  Counters c0;
  AddCell(*dep, c0);
  const uint64_t calls0 = probe.calls;
  const uint64_t ev0 = dep->sim().events_executed();
  Tally& tally = r.tally;
  if (tr != nullptr) {
    tr->Reserve(queries.size() + 64);
    r.route_us.reserve(queries.size());
  }

  const int64_t w0 = NowNs();
  size_t qi = 0;
  for (int k = 0; k < kSegments; ++k) {
    const SimTime seg_end = window.start + w.window / kSegments * (k + 1);
    ScopedSpan ws(tr, "window", root);
    const int64_t h0 = NowNs();
    const double check0 = tally.check_ns;
    for (; qi < queries.size() && queries[qi].issue_at < seg_end; ++qi) {
      const QueryRequest& q = queries[qi];
      dep->RunUntil(q.issue_at);
      QuerySpec spec;
      spec.type = q.past ? QueryType::kPast : QueryType::kNow;
      spec.sensor_id = dep->GlobalSensorId(q.sensor);
      spec.range = q.past ? PastRangeOf(q, q.issue_at) : TimeInterval{};
      spec.tolerance = q.tolerance;
      spec.latency_bound = q.latency_bound;
      ++tally.issued;
      Checker* ckp = &ck;
      auto done = [ckp, &tally, q, spec](const UnifiedQueryResult& res) {
        ckp->Check(tally, q.sensor, q.past, spec.range, q.tolerance, q.issue_at,
                   res.answer, res.Latency());
      };
      if (tr != nullptr) {
        const int64_t a = NowNs();
        dep->QueryAsync(spec, std::move(done));
        const int64_t b = NowNs();
        tr->Add("query_async", a, b, ws.id());
        r.route_us.push_back(static_cast<double>(b - a) / 1e3);
      } else {
        dep->QueryAsync(spec, std::move(done));
      }
    }
    dep->RunUntil(seg_end);
    r.segment_s.push_back(SecondsOf(NowNs() - h0) - (tally.check_ns - check0) / 1e9);
  }
  r.run_s = SecondsOf(NowNs() - w0) - tally.check_ns / 1e9;
  r.events = dep->sim().events_executed() - ev0;
  r.j_per_sensor_day = (dep->MeanSensorEnergy() - e0) / ToDays(w.window);
  Counters c1;
  AddCell(*dep, c1);
  r.layers = Delta(c1, c0);
  r.measure_calls = probe.calls - calls0;
  r.measure_ns = probe.timed > 0 ? static_cast<double>(probe.timed_ns) /
                                       static_cast<double>(probe.timed)
                                 : 0.0;
  {
    ScopedSpan s(tr, "drain", root);
    dep->RunUntil(window.end + w.drain);
  }
  Counters c2;
  AddCell(*dep, c2);
  r.drained = Delta(c2, c0);
  r.fingerprint = dep->sim().fingerprint();
  LatencyHistogram histogram;
  for (const double ms : tally.latency_ms.samples()) {
    histogram.Record(static_cast<Duration>(std::llround(ms * 1e3)));
  }
  r.histogram = histogram.Hash();
  if (traced) {
    ScopedSpan s(tr, "replay", root);
    const ModelReplay m = ReplayModels(
        *dep, r.layers.at("sensor.samples") / std::max(1.0, r.layers.at("sensor.pushes")));
    r.predict_ns = m.predict_ns;
    r.fit_ns = m.fit_ns;
    r.coverage_ns = ReplayCoverage(*dep, mix.past_window, opt.seed);
  }
  return r;
}

// Stats of every driver of a federation, merged.
QueryDriverStats MergeDrivers(const Federation& fed) {
  QueryDriverStats m;
  for (int d = 0; d < fed.num_drivers(); ++d) {
    const QueryDriverStats s = fed.DriverStats(d);
    m.issued += s.issued;
    m.completed += s.completed;
    m.failed += s.failed;
    for (size_t i = 0; i < s.by_source.size(); ++i) {
      m.by_source[i] += s.by_source[i];
    }
    for (const double x : s.latency_ms.samples()) {
      m.latency_ms.Add(x);
    }
    m.energy_j += s.energy_j;
    m.latency.Merge(s.latency);
  }
  return m;
}

// Federation round: builds, warms up, runs the timed window with every cell's
// driver live, drains, and folds the drivers' stats.
Round RunFedRound(const Workload& w, bool traced, bool sequential,
                  std::unique_ptr<Federation>* keep = nullptr) {
  Round r;
  r.traced = traced;
  SpanRecorder* tr = nullptr;
  if (traced) {
    r.spans = std::make_unique<SpanRecorder>();
    tr = r.spans.get();
  }
  ScopedSpan round_span(tr, "round", -1);
  const int root = round_span.id();
  const int64_t t0 = NowNs();
  std::unique_ptr<Federation> fed;
  {
    ScopedSpan s(tr, "build", root);
    fed = std::make_unique<Federation>(FedConfig(w, sequential));
  }
  const int64_t t_built = NowNs();
  {
    ScopedSpan s(tr, "start", root);
    for (int c = 0; c < w.num_cells; ++c) {
      QueryDriverParams params;
      params.mix = CellStreamMix(w, c);
      fed->AttachDriver(c, params);
    }
    fed->Start();
  }
  r.setup_part_s = {SecondsOf(t_built - t0), SecondsOf(NowNs() - t_built)};
  for (int k = 0; k < kSegments; ++k) {
    ScopedSpan s(tr, "warmup", root);
    const int64_t h0 = NowNs();
    fed->RunUntil(w.warmup / kSegments * (k + 1));
    r.setup_part_s.push_back(SecondsOf(NowNs() - h0));
  }
  const int64_t t_warm = NowNs();
  r.build_s = SecondsOf(t_built - t0);
  r.warmup_s = SecondsOf(t_warm - t_built);

  for (int d = 0; d < fed->num_drivers(); ++d) {
    fed->StartDriver(d, w.window);
  }
  const uint64_t ev0 = fed->EventsExecuted();
  const FederationStats f0 = fed->stats();
  const FederationTrunkTotals k0 = fed->TrunkTotals();
  double e0 = 0.0;
  Counters c0;
  if (sequential) {
    for (int c = 0; c < w.num_cells; ++c) {
      e0 += fed->cell(c).MeanSensorEnergy();
      AddCell(fed->cell(c), c0);
    }
  }
  const int64_t w0 = NowNs();
  for (int k = 0; k < kSegments; ++k) {
    const SimTime seg_start = w.warmup + w.window / kSegments * k;
    const SimTime seg_end = seg_start + w.window / kSegments;
    ScopedSpan ws(tr, "window", root);
    const int64_t h0 = NowNs();
    // One RunUntil per federation epoch, to the next barrier; traced rounds time
    // each one.
    for (SimTime t = seg_start + kTrunkLatency; t <= seg_end; t += kTrunkLatency) {
      if (tr == nullptr) {
        fed->RunUntil(t);
        continue;
      }
      const int64_t a = NowNs();
      fed->RunUntil(t);
      const int64_t b = NowNs();
      tr->Add("epoch", a, b, ws.id());
      r.epoch_us.push_back(static_cast<double>(b - a) / 1e3);
    }
    r.segment_s.push_back(SecondsOf(NowNs() - h0));
  }
  r.run_s = SecondsOf(NowNs() - w0);
  r.events = fed->EventsExecuted() - ev0;
  const FederationStats f1 = fed->stats();
  const FederationTrunkTotals k1 = fed->TrunkTotals();
  r.fed.barriers = f1.barriers - f0.barriers;
  r.fed.mail_drained = f1.mail_drained - f0.mail_drained;
  r.fed.orphans = f1.orphans - f0.orphans;
  r.trunks.messages = k1.messages - k0.messages;
  r.trunks.bytes = k1.bytes - k0.bytes;
  if (sequential) {
    double e1 = 0.0;
    Counters c1;
    for (int c = 0; c < w.num_cells; ++c) {
      e1 += fed->cell(c).MeanSensorEnergy();
      AddCell(fed->cell(c), c1);
    }
    r.j_per_sensor_day = (e1 - e0) / w.num_cells / ToDays(w.window);
    r.layers = Delta(c1, c0);
  }
  {
    ScopedSpan s(tr, "drain", root);
    fed->RunUntil(w.warmup + w.window + w.drain);
  }
  r.fingerprint = fed->fingerprint();
  const QueryDriverStats m = MergeDrivers(*fed);
  r.histogram = m.latency.Hash();
  r.tally.issued = m.issued;
  r.tally.completed = m.completed;
  r.tally.failed = m.failed;
  r.tally.by_source = m.by_source;
  r.tally.latency_ms = m.latency_ms;
  r.tally.energy_j = m.energy_j;
  if (keep != nullptr) {
    *keep = std::move(fed);
  }
  return r;
}

// Host-issued probes against the sequential replay after its drain: NOW and PAST
// queries at every gateway, checked against the world model. The federation's
// drivers do not return answer values, so this is where federation answers are
// checked and the accuracy metrics come from.
void ProbeFederation(Federation& fed, const Workload& w, Checker& ck, Tally& tally,
                     uint64_t seed) {
  Pcg32 rng(seed, 0x9b0be);
  const int total = fed.directory().total_sensors();
  QueryWorkloadParams mix = w.mix;
  mix.num_sensors = total;
  const SimTime start = fed.Now();
  for (SimTime t = start; t < start + Minutes(30); t += Seconds(2)) {
    for (int origin = 0; origin < w.num_cells; ++origin) {
      const QueryRequest q = DrawQueryRequest(rng, mix, t);
      FederationQuerySpec spec;
      spec.type = q.past ? QueryType::kPast : QueryType::kNow;
      spec.fed_sensor = q.sensor;
      spec.range = q.past ? PastRangeOf(q, t) : TimeInterval{};
      spec.tolerance = q.tolerance;
      spec.latency_bound = q.latency_bound;
      const int target = fed.directory().CellOf(q.sensor);
      const int local = fed.directory().LocalOf(q.sensor);
      ++tally.issued;
      Federation* f = &fed;
      Checker* ckp = &ck;
      fed.IssueFromCell(origin, spec,
                        [f, ckp, &tally, target, local, q, spec](
                            const FederationQueryResult& res) {
                          ckp->field = &f->cell(target).field();
                          ckp->Check(tally, local, q.past, spec.range, q.tolerance,
                                     res.issued_at, res.cell.answer, res.Latency());
                        });
    }
    fed.RunUntil(t + Seconds(2));
  }
  fed.RunUntil(fed.Now() + w.drain);
}

// ---------------------------------------------------------------------------
// Host record and output.

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

double PeakRssMib() {
  struct rusage self {};
  struct rusage children {};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Typical latency of a mixture spanning two orders of magnitude (cache and model
// answers in tens of ms, pulls in seconds). The median sits on the cache-hit path's
// fixed wired latency, so it reads the same on every seed; the mean follows the
// pull queueing tail. The geometric mean moves with both the answer-source shares
// and each source's latency.
double GeoMean(const SampleSet& s) {
  double log_sum = 0.0;
  for (const double x : s.samples()) {
    log_sum += std::log(std::max(x, 1e-3));
  }
  return s.count() == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(s.count()));
}

// Host seconds over `rounds` of the pieces in `parts` (Round::segment_s or
// Round::setup_part_s): the sum over pieces of each piece's median across rounds
// (see kSegments).
double Composed(const std::vector<const Round*>& rounds,
                std::vector<double> Round::*parts) {
  double total = 0.0;
  for (size_t k = 0; k < (rounds.front()->*parts).size(); ++k) {
    std::vector<double> v;
    for (const Round* r : rounds) {
      v.push_back((r->*parts)[k]);
    }
    total += Median(v);
  }
  return total;
}

double ComposedRunS(const std::vector<const Round*>& rounds) {
  return Composed(rounds, &Round::segment_s);
}

double Quantile(std::vector<double> v, double q) {
  SampleSet s;
  for (const double x : v) {
    s.Add(x);
  }
  return s.count() == 0 ? 0.0 : s.Quantile(q);
}

std::string Escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[128];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: presto_perfbench --workload <sensing_day|query_storm|"
               "federation_threads|federation_procs> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>] [--quick] "
               "[--perturb now|past|range|source|sum|fed] [--flash-blocks <n>] "
               "[--window-hours <h>] [--events-per-day <x>]\n");
  return 2;
}

int Run(const Options& opt) {
  Workload w = MakeWorkload(opt.workload, opt.seed, opt.quick);
  if (w.name.empty()) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return Usage();
  }
  if (opt.flash_blocks > 0) {
    w.cell.flash.num_blocks = opt.flash_blocks;
  }
  if (opt.window_hours > 0.0) {
    w.window = Hours(opt.window_hours);
  }
  if (opt.events_per_day >= 0.0) {
    w.cell.field.events_per_day = opt.events_per_day;
  }
  const bool fed = w.kind == Kind::kFederation;

  // Rounds until the measuring time is spent; traced runs alternate untraced and
  // traced rounds so the overhead is measured under the same conditions.
  std::vector<Round> rounds;
  const int64_t start = NowNs();
  do {
    const bool traced = opt.trace && rounds.size() % 2 == 1;
    rounds.push_back(fed ? RunFedRound(w, traced, false)
                         : RunCellRound(w, opt, traced));
  } while (SecondsOf(NowNs() - start) < opt.seconds || (opt.trace && rounds.size() < 2));
  const double peak_rss = PeakRssMib();

  std::vector<std::string> failures;
  auto require = [&failures](bool ok, const std::string& what) {
    if (!ok) {
      failures.push_back(what);
    }
  };

  // Simulated results must be bit-identical across the rounds of one seed.
  const Round& first = rounds.front();
  for (const Round& r : rounds) {
    require(r.fingerprint == first.fingerprint && r.events == first.events &&
                r.tally.completed == first.tally.completed &&
                r.tally.by_source == first.tally.by_source &&
                r.tally.latency_ms.samples() == first.tally.latency_ms.samples(),
            "rounds of one seed diverged (fingerprint or answers)");
  }

  // Federation: an in-process sequential replay of the same world, outside the
  // timed window, must reproduce fingerprint and merged histogram. It also gives
  // the speedup, the sensor-side counters, and the checked probe answers.
  Round replay;
  Tally probes;
  std::unique_ptr<Federation> replay_fed;
  double replay_s = 0.0;
  if (fed) {
    const int64_t a = NowNs();
    replay = RunFedRound(w, false, true, &replay_fed);
    replay_s = SecondsOf(NowNs() - a);
    uint64_t expect_fp = replay.fingerprint;
    if (opt.perturb == "fed") {
      expect_fp ^= 1;
    }
    require(first.fingerprint == expect_fp,
            "federation fingerprint differs from the sequential replay");
    require(first.histogram == replay.histogram &&
                first.tally.latency_ms.samples() == replay.tally.latency_ms.samples(),
            "federation latency histogram differs from the sequential replay");
    Checker ck = MakeChecker(w, opt, nullptr);
    ProbeFederation(*replay_fed, w, ck, probes, opt.seed);
    require(probes.completed + probes.failed == probes.issued,
            "federation probes left in flight after the drain");
    require(probes.failed == 0, "federation probes failed");
    require(probes.violations == 0,
            "federation probe answers: " +
                (probes.messages.empty() ? std::string() : probes.messages.front()));
  }

  const Round& sim = fed ? replay : first;  // sensor-side counters and energy
  const Tally& acc = fed ? probes : first.tally;
  const Tally& t = first.tally;
  require(t.issued > 0, "no queries issued");
  require(t.completed + t.failed == t.issued,
          "queries left in flight after the drain: issued " + std::to_string(t.issued) +
              ", completed " + std::to_string(t.completed) + ", failed " +
              std::to_string(t.failed));
  require(t.failed == 0, std::to_string(t.failed) + " queries failed");
  require(t.by_source[0] + t.by_source[1] + t.by_source[2] == t.completed,
          "answer-source counts do not sum to the completed queries");
  if (!fed) {
    const Counters& L = first.drained;
    require(L.at("proxy.cache_hits") == static_cast<double>(t.by_source[0]) &&
                L.at("proxy.extrapolations") == static_cast<double>(t.by_source[1]),
            "answer sources disagree with the proxies' counters");
    require(t.violations == 0, "answer checks failed (" + std::to_string(t.violations) +
                                   "): " +
                                   (t.messages.empty() ? std::string() : t.messages.front()));
  }
  require(sim.layers.at("flash.appends_rejected") == 0,
          "flash rejected " +
              std::to_string(static_cast<uint64_t>(sim.layers.at("flash.appends_rejected"))) +
              " appends");
  require(t.completed >= 10000 || opt.quick, "fewer than 10^4 completed queries");

  // --- metrics ---
  // The first round warms the process (allocator, page cache, branch predictors)
  // and is left out of host-time figures whenever a later untraced round exists.
  std::vector<const Round*> untraced, traced_rounds;
  for (size_t i = 0; i < rounds.size(); ++i) {
    if (i == 0 && rounds.size() > (opt.trace ? 3u : 1u)) {
      continue;
    }
    (rounds[i].traced ? traced_rounds : untraced).push_back(&rounds[i]);
  }
  const std::vector<const Round*>& measured = opt.trace ? traced_rounds : untraced;
  std::vector<double> build, warm, wins, routes, epochs;
  const double segment_h = ToHours(w.window / kSegments);
  for (const Round* r : measured) {
    build.push_back(r->build_s);
    warm.push_back(r->warmup_s);
    for (const double sec : r->segment_s) {
      wins.push_back(sec * 1e3 / segment_h);
    }
    routes.insert(routes.end(), r->route_us.begin(), r->route_us.end());
    epochs.insert(epochs.end(), r->epoch_us.begin(), r->epoch_us.end());
  }
  const double run_s = ComposedRunS(measured);
  const double completed = static_cast<double>(t.completed);
  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = {
        {"setup_s", Composed(measured, &Round::setup_part_s), "s"},
        {"run_s", run_s, "s"},
        {"events_per_s", static_cast<double>(first.events) / run_s, "events/s"},
        {"peak_rss_mib", peak_rss, "MiB"},
        {"latency_geomean_ms", GeoMean(t.latency_ms), "ms"},
        {"latency_p99_ms", t.latency_ms.Quantile(0.99), "ms"},
        {"j_per_sensor_day", sim.j_per_sensor_day, "J"},
        {"j_per_query", t.energy_j / completed, "J"},
        {"now_abs_error_c", acc.now_err_sum / static_cast<double>(std::max<uint64_t>(acc.now_n, 1)), "C"},
        {"past_abs_error_c", acc.past_err_sum / static_cast<double>(std::max<uint64_t>(acc.past_n, 1)), "C"},
    };
  } else {
    const Counters& L = sim.layers;
    const Round* traced = nullptr;
    for (const Round& r : rounds) {
      if (r.traced) {
        traced = &r;
        break;
      }
    }
    const double sensors = static_cast<double>(w.cell.num_proxies * w.cell.sensors_per_proxy *
                                               (fed ? w.num_cells : 1));
    const FlashReplay fr =
        ReplayFlash(w.cell.flash, w.cell.archive, w.cell.sensing_period,
                    static_cast<uint64_t>(L.at("flash.records_appended") / sensors),
                    w.mix.past_window, opt.seed);
    double predict_ns = traced->predict_ns, fit_ns = traced->fit_ns,
           coverage_ns = traced->coverage_ns;
    if (fed) {
      const ModelReplay m = ReplayModels(
          replay_fed->cell(0), L.at("sensor.samples") / std::max(1.0, L.at("sensor.pushes")));
      predict_ns = m.predict_ns;
      fit_ns = m.fit_ns;
      coverage_ns = ReplayCoverage(replay_fed->cell(0), w.mix.past_window, opt.seed);
    }
    const double measure_calls =
        fed ? L.at("sensor.samples") : static_cast<double>(traced->measure_calls);
    const double measure_ns =
        fed ? ReplayMeasure(w.cell.field, w.cell.sensors_per_proxy * w.cell.num_proxies,
                            w.cell.spatial_correlation, w.cell.sensing_period)
            : traced->measure_ns;
    const double barriers = static_cast<double>(first.fed.barriers);
    const double mail_per_barrier =
        barriers > 0 ? static_cast<double>(first.fed.mail_drained) / barriers : 0.0;
    WireReplay wire;
    if (fed) {
      wire = ReplayFedWire(static_cast<int>(std::lround(mail_per_barrier /
                                                        std::max(1, w.cell_processes))),
                           opt.seed);
    }
    // One kStep request and reply per worker per barrier (derived, not counted).
    const double wire_frames =
        w.cell_processes > 1 ? 2.0 * w.cell_processes * barriers : 0.0;
    const double samples = L.at("sensor.samples");
    const double queries = L.at("proxy.queries");
    metrics = {
        {"sim.events", static_cast<double>(first.events), "count"},
        {"sim.ns_per_event", run_s * 1e9 / static_cast<double>(first.events), "ns"},
        {"sim.window_ms_p50", Quantile(wins, 0.5), "ms"},
        {"sim.window_ms_p99", Quantile(wins, 0.99), "ms"},
        {"world.measure_calls", measure_calls, "count"},
        {"world.measure_ns", measure_ns, "ns"},
        {"sensor.samples", samples, "count"},
        {"sensor.model_checks", L.at("sensor.model_checks"), "count"},
        {"sensor.pushes", L.at("sensor.pushes"), "count"},
        {"sensor.suppressed_ratio", samples > 0 ? L.at("sensor.suppressed") / samples : 0.0,
         "ratio"},
        {"models.predict_ns", predict_ns, "ns"},
        {"models.fit_ns", fit_ns, "ns"},
        {"proxy.model_sends", L.at("proxy.model_sends"), "count"},
        {"flash.records_appended", L.at("flash.records_appended"), "count"},
        {"flash.records_read", L.at("flash.records_read"), "count"},
        {"flash.aging_passes", L.at("flash.aging_passes"), "count"},
        {"flash.page_writes", L.at("flash.page_writes"), "count"},
        {"flash.page_reads", L.at("flash.page_reads"), "count"},
        {"flash.block_erases", L.at("flash.block_erases"), "count"},
        {"flash.appends_rejected", L.at("flash.appends_rejected"), "count"},
        {"flash.append_ns", fr.append_ns, "ns"},
        {"flash.query_ns", fr.query_ns, "ns"},
        {"net.messages_sent", L.at("net.messages_sent"), "count"},
        {"net.frames_sent", L.at("net.frames_sent"), "count"},
        {"net.frame_retries", L.at("net.frame_retries"), "count"},
        {"net.batch_flushes", L.at("net.batch_flushes"), "count"},
        {"net.cross_lane_sends", L.at("net.cross_lane_sends"), "count"},
        {"proxy.queries", queries, "count"},
        {"proxy.cache_hits", L.at("proxy.cache_hits"), "count"},
        {"proxy.extrapolations", L.at("proxy.extrapolations"), "count"},
        {"proxy.pulls", L.at("proxy.pulls"), "count"},
        {"proxy.coalesced_pulls", L.at("proxy.coalesced_pulls"), "count"},
        {"proxy.pull_timeouts", L.at("proxy.pull_timeouts"), "count"},
        {"proxy.no_pull_ratio",
         queries > 0 ? (L.at("proxy.cache_hits") + L.at("proxy.extrapolations")) / queries
                     : 0.0,
         "ratio"},
        {"proxy.coverage_ns", coverage_ns, "ns"},
        {"store.hops_per_query",
         L.at("store.queries") > 0 ? L.at("store.hops") / L.at("store.queries") : 0.0,
         "count"},
        {"store.route_us_p50", Quantile(routes, 0.5), "us"},
        {"store.route_us_p99", Quantile(routes, 0.99), "us"},
        {"setup.build_s", Median(build), "s"},
        {"setup.warmup_s", Median(warm), "s"},
        {"fed.barriers", barriers, "count"},
        {"fed.mail_drained", static_cast<double>(first.fed.mail_drained), "count"},
        {"fed.orphans", static_cast<double>(first.fed.orphans), "count"},
        {"fed.trunk_messages", static_cast<double>(first.trunks.messages), "count"},
        {"fed.trunk_bytes", static_cast<double>(first.trunks.bytes), "bytes"},
        {"fed.epoch_us_p50", Quantile(epochs, 0.5), "us"},
        {"fed.epoch_us_p99", Quantile(epochs, 0.99), "us"},
        {"fed.spawn_s", fed ? Median(build) : 0.0, "s"},
        {"fed.speedup_vs_sequential", fed ? replay.run_s / ComposedRunS(untraced) : 0.0,
         "ratio"},
        {"fed_wire.encode_ns", wire.encode_ns, "ns"},
        {"fed_wire.decode_ns", wire.decode_ns, "ns"},
        {"trace.overhead_ratio", run_s / ComposedRunS(untraced), "ratio"},
    };
    // Estimated host seconds per leaf layer: replayed ns/call x the run's calls.
    std::printf(
        "{\"layer_host_s_estimate\": {\"world.measure\": %.4f, \"flash.append\": %.4f, "
        "\"flash.query\": %.4f, \"models.predict_fit\": %.4f, \"proxy.coverage\": %.4f, "
        "\"fed_wire.encode_decode\": %.4f}, \"run_s\": %.4f}\n",
        measure_calls * measure_ns / 1e9,
        L.at("flash.records_appended") * fr.append_ns / 1e9,
        (L.at("proxy.pulls")) * fr.query_ns / 1e9,
        L.at("sensor.model_checks") * predict_ns / 1e9 +
            L.at("proxy.model_sends") * fit_ns / 1e9,
        queries * coverage_ns / 1e9,
        wire_frames * 0.5 * (wire.encode_ns + wire.decode_ns) / 1e9, run_s);
    if (!opt.trace_out.empty() && traced->spans != nullptr) {
      require(traced->spans->WriteChromeTrace(opt.trace_out),
              "cannot write trace file " + opt.trace_out);
    }
  }

  // Host record: where the numbers came from, and every fingerprint.
  std::printf(
      "{\"host\": {\"cpu\": \"%s\", \"nproc\": %ld, \"build_type\": \"%s\"}, "
      "\"workload\": \"%s\", \"seed\": %llu, \"rounds\": %zu, "
      "\"fingerprint\": \"%016llx\", \"latency_histogram\": \"%016llx\", "
      "\"sources\": {\"cache\": %llu, \"model\": %llu, \"pull\": %llu}, "
      "\"past_model_answers\": %llu, \"past_model_answers_over_bound\": %llu, "
      "\"replay_s\": %.3f, \"violations\": %llu, \"latency_max_ms\": %.3f, "
      "\"failures\": [",
      Escape(CpuModel()).c_str(), sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_BUILD_TYPE,
      w.name.c_str(), static_cast<unsigned long long>(opt.seed), rounds.size(),
      static_cast<unsigned long long>(first.fingerprint),
      static_cast<unsigned long long>(first.histogram),
      static_cast<unsigned long long>(t.by_source[0]),
      static_cast<unsigned long long>(t.by_source[1]),
      static_cast<unsigned long long>(t.by_source[2]),
      static_cast<unsigned long long>(acc.past_model_answers),
      static_cast<unsigned long long>(acc.past_model_answers_over), replay_s,
      static_cast<unsigned long long>(acc.violations), t.latency_ms.max());
  for (size_t i = 0; i < failures.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ", Escape(failures[i]).c_str());
  }
  // Every round's host times, in order, so drift within a run shows.
  std::printf("], \"round_setup_s\": [");
  for (size_t i = 0; i < rounds.size(); ++i) {
    const std::vector<double>& p = rounds[i].setup_part_s;
    std::printf("%s%.4f", i == 0 ? "" : ", ", std::accumulate(p.begin(), p.end(), 0.0));
  }
  std::printf("], \"round_run_s\": [");
  for (size_t i = 0; i < rounds.size(); ++i) {
    std::printf("%s%.4f", i == 0 ? "" : ", ", rounds[i].run_s);
  }
  std::printf("]}\n");

  uint64_t attempted = 0, failed = 0;
  for (const Round& r : rounds) {
    attempted += r.tally.issued;
    failed += r.tally.failed;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              failures.empty() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), MetricsJson(metrics).c_str());
  std::fflush(stdout);
  for (const std::string& f : failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (a == "--quick") {
      opt.quick = true;
    } else if ((v = next()) == nullptr) {
      return perfbench::Usage();
    } else if (a == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      opt.trace = std::strcmp(v, "0") != 0;
    } else if (a == "--trace-out") {
      opt.trace_out = v;
    } else if (a == "--perturb") {
      opt.perturb = v;
    } else if (a == "--flash-blocks") {
      opt.flash_blocks = std::atoi(v);
    } else if (a == "--window-hours") {
      opt.window_hours = std::strtod(v, nullptr);
    } else if (a == "--events-per-day") {
      opt.events_per_day = std::strtod(v, nullptr);
    } else {
      return perfbench::Usage();
    }
  }
  if (!have_workload) {
    return perfbench::Usage();
  }
  return perfbench::Run(opt);
}

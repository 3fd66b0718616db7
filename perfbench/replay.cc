#include "perfbench/replay.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "perfbench/trace.h"
#include "src/core/types.h"
#include "src/proxy/prediction_engine.h"
#include "src/net/fed_wire.h"
#include "src/util/bytes.h"
#include "src/util/ckpt.h"
#include "src/util/rng.h"

namespace perfbench {

using namespace presto;

namespace {

// Keeps a computed value alive so the timed loop is not optimised away.
volatile double g_sink = 0.0;

// Median of `reps` timings of `batch` calls of `fn`, in ns per call.
template <typename Fn>
double TimePerCall(int reps, int batch, Fn&& fn) {
  std::vector<double> per_call;
  for (int r = 0; r < reps; ++r) {
    const int64_t t0 = NowNs();
    for (int i = 0; i < batch; ++i) {
      fn(i);
    }
    per_call.push_back(static_cast<double>(NowNs() - t0) / batch);
  }
  std::nth_element(per_call.begin(), per_call.begin() + reps / 2, per_call.end());
  return per_call[static_cast<size_t>(reps / 2)];
}

}  // namespace

FlashReplay ReplayFlash(const FlashParams& flash, const ArchiveParams& archive,
                        Duration sensing_period, uint64_t appends_per_sensor,
                        Duration past_window, uint64_t seed) {
  FlashReplay out;
  const uint64_t per_store = std::max<uint64_t>(appends_per_sensor, 64);
  // Enough stores for ~50k timed appends, so the per-call figure is stable.
  const int stores = static_cast<int>(std::max<uint64_t>(1, 50000 / per_store));
  Pcg32 rng(seed, 0xf1a5);
  double append_total_ns = 0.0;
  uint64_t appended = 0;
  std::unique_ptr<FlashDevice> device;
  std::unique_ptr<ArchiveStore> store;
  SimTime t = 0;
  for (int s = 0; s < stores; ++s) {
    device = std::make_unique<FlashDevice>(flash, nullptr);
    store = std::make_unique<ArchiveStore>(device.get(), archive);
    t = 0;
    const int64_t t0 = NowNs();
    for (uint64_t i = 0; i < per_store; ++i) {
      t += sensing_period;
      const double hours = ToHours(t);
      const Status st =
          store->Append(Sample{t, 21.0 + 4.0 * std::sin(hours * 0.2618) + 0.1 * rng.Gaussian()});
      g_sink = g_sink + (st.ok() ? 1.0 : 0.0);
    }
    append_total_ns += static_cast<double>(NowNs() - t0);
    appended += per_store;
  }
  out.append_ns = append_total_ns / static_cast<double>(appended);

  // PAST windows at uniform ages inside what the last store still retains.
  auto retained = store->RetainedRange();
  if (!retained.ok() || retained->Length() <= past_window) {
    return out;
  }
  const TimeInterval span_all = *retained;
  out.query_ns = TimePerCall(5, 400, [&](int) {
    const SimTime start =
        span_all.start + static_cast<SimTime>(rng.NextDouble() *
                                              static_cast<double>(span_all.Length() -
                                                                  past_window));
    auto rows = store->Query(TimeInterval{start, start + past_window});
    g_sink = g_sink + (rows.ok() ? static_cast<double>(rows->size()) : 0.0);
  });
  return out;
}

namespace {

// The first sensor (proxy-major) with an installed model, and its owning proxy.
bool FindModelledSensor(Deployment& cell, int* proxy_out, NodeId* sensor_out,
                        const PredictiveModel** model_out) {
  const DeploymentConfig& cfg = cell.config();
  for (int p = 0; p < cfg.num_proxies; ++p) {
    for (int s = 0; s < cfg.sensors_per_proxy; ++s) {
      const PredictiveModel* model = cell.sensor(p, s).model();
      const int owner = cell.OwnerProxyIndex(p, s);
      const NodeId id = Deployment::SensorId(p, s);
      if (model != nullptr && cell.proxy(owner).cache(id) != nullptr) {
        *proxy_out = owner;
        *sensor_out = id;
        *model_out = model;
        return true;
      }
    }
  }
  return false;
}

}  // namespace

ModelReplay ReplayModels(Deployment& cell, double mean_horizon_steps) {
  ModelReplay out;
  int proxy = 0;
  NodeId sensor = 0;
  const PredictiveModel* installed = nullptr;
  if (!FindModelledSensor(cell, &proxy, &sensor, &installed)) {
    return out;
  }
  // Sensor-side checks predict at the current sample, some steps past the last
  // anchor: horizons uniform over twice the run's mean gap between pushes.
  const SimTime now = cell.sim().Now();
  const Duration period = cell.config().sensing_period;
  const int max_steps = std::max(1, static_cast<int>(std::lround(2.0 * mean_horizon_steps)));
  std::unique_ptr<PredictiveModel> model = installed->Clone();
  out.predict_ns = TimePerCall(5, 20000, [&](int i) {
    const Prediction p = model->Predict(now + period * (1 + i % max_steps));
    g_sink = g_sink + p.value;
  });

  // Proxy-side fits replay the owning proxy's engine on its real training history:
  // its checkpoint state is loaded into fresh engines outside the timed region.
  const PredictionEngine* engine = cell.proxy(proxy).engine(sensor);
  if (engine == nullptr || !engine->ReadyToFit()) {
    return out;
  }
  ByteWriter w;
  engine->SaveState(w);
  const std::vector<uint8_t> state = w.TakeBuffer();
  constexpr int kFits = 4;
  std::vector<double> per_fit;
  for (int rep = 0; rep < 5; ++rep) {
    std::vector<std::unique_ptr<PredictionEngine>> engines;
    for (int i = 0; i < kFits; ++i) {
      engines.push_back(std::make_unique<PredictionEngine>(cell.config().engine));
      ByteReader r{span<const uint8_t>(state)};
      if (!engines.back()->LoadState(r).ok()) {
        return out;
      }
    }
    const int64_t t0 = NowNs();
    for (auto& e : engines) {
      auto params = e->FitAndSerialize();
      g_sink = g_sink + (params.ok() ? static_cast<double>(params->size()) : 0.0);
    }
    per_fit.push_back(static_cast<double>(NowNs() - t0) / kFits);
  }
  std::sort(per_fit.begin(), per_fit.end());
  out.fit_ns = per_fit[per_fit.size() / 2];
  return out;
}

double ReplayCoverage(Deployment& cell, Duration past_window, uint64_t seed) {
  int proxy = 0;
  NodeId sensor = 0;
  const PredictiveModel* installed = nullptr;
  if (!FindModelledSensor(cell, &proxy, &sensor, &installed)) {
    return 0.0;
  }
  const SummaryCache* cache = cell.proxy(proxy).cache(sensor);
  const SimTime now = cell.sim().Now();
  const Duration horizon = std::min<Duration>(now, Days(1));
  Pcg32 rng(seed, 0xc07e);
  const Duration period = cell.config().sensing_period;
  return TimePerCall(5, 5000, [&](int) {
    const SimTime start =
        now - horizon +
        static_cast<SimTime>(rng.NextDouble() * static_cast<double>(horizon - past_window));
    g_sink = g_sink + cache->CoverageFraction(TimeInterval{start, start + past_window},
                                              period);
  });
}

double ReplayMeasure(const TemperatureParams& params, int nodes, double correlation,
                     Duration sensing_period) {
  TemperatureField field(nodes, params, correlation);
  // Warm the lazily built front grid first: the run reads an already-extended field.
  field.PrepareThrough(Days(1));
  SimTime t = Hours(1);
  int node = 0;
  return TimePerCall(5, 20000, [&](int) {
    g_sink = g_sink + field.MeasureAt(node, t);
    if (++node == nodes) {
      node = 0;
      t += sensing_period;
    }
  });
}

WireReplay ReplayFedWire(int mails, uint64_t seed) {
  WireReplay out;
  Pcg32 rng(seed, 0x3135);
  std::vector<FedMail> box;
  for (int i = 0; i < std::max(mails, 1); ++i) {
    ByteWriter body;
    FedMail mail;
    mail.source_cell = static_cast<int>(rng.UniformInt(0, 7));
    mail.target_cell = static_cast<int>(rng.UniformInt(0, 7));
    mail.time = Seconds(3600) + i;
    mail.qid = static_cast<uint64_t>(i);
    if (i % 2 == 0) {
      QuerySpec spec;
      spec.sensor_id = static_cast<NodeId>(1000 + i);
      spec.tolerance = rng.Uniform(0.5, 2.0);
      CkptWrite(body, spec);
      mail.op = 1;
    } else {
      UnifiedQueryResult result;
      result.answer.source = AnswerSource::kCacheHit;
      result.answer.value = rng.Uniform(15.0, 25.0);
      result.answer.samples = {Sample{mail.time, result.answer.value}};
      CkptWrite(body, result);
      mail.op = 2;
    }
    mail.body = body.TakeBuffer();
    box.push_back(std::move(mail));
  }
  ByteWriter payload;
  CkptWrite(payload, SimTime{Seconds(3600)});
  CkptWrite(payload, SimTime{Seconds(3600) + Millis(250)});
  CkptWrite(payload, box);
  FedFrame frame;
  frame.type = FedFrameType::kStep;
  frame.payload = payload.TakeBuffer();

  std::vector<uint8_t> encoded;
  out.encode_ns = TimePerCall(5, 2000, [&](int) {
    auto bytes = EncodeFedFrame(frame);
    g_sink = g_sink + static_cast<double>(bytes->size());
    if (encoded.empty()) {
      encoded = std::move(*bytes);
    }
  });
  out.decode_ns = TimePerCall(5, 2000, [&](int) {
    auto decoded = DecodeFedFrame(span<const uint8_t>(encoded));
    g_sink = g_sink + static_cast<double>(decoded->payload.size());
  });
  return out;
}

}  // namespace perfbench

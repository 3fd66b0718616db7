// Leaf-layer replay timings: calls into one layer's public functions, outside the
// simulation, with inputs sized from the traced run's own counts. Each returns host
// nanoseconds per call; multiplied by the run's call count it estimates that
// layer's share of the run's host time.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>

#include "src/core/deployment.h"
#include "src/flash/archive_store.h"
#include "src/flash/flash_device.h"
#include "src/workload/temperature.h"

namespace perfbench {

struct FlashReplay {
  double append_ns = 0.0;
  double query_ns = 0.0;
};

// Appends `appends_per_sensor` samples on the sensing grid into fresh
// `flash`/`archive` stores (as many stores as it takes to reach a stable total),
// then times PAST-window Query calls against the filled store.
FlashReplay ReplayFlash(const presto::FlashParams& flash,
                        const presto::ArchiveParams& archive,
                        presto::Duration sensing_period, uint64_t appends_per_sensor,
                        presto::Duration past_window, uint64_t seed);

struct ModelReplay {
  double predict_ns = 0.0;
  double fit_ns = 0.0;
};

// Times Predict on a clone of the first model installed on one of `cell`'s sensors
// (`mean_horizon_steps`: the run's mean sensing periods between pushes), and a
// model fit by that sensor's owning proxy engine on its own training history. Zero
// when no sensor holds a model.
ModelReplay ReplayModels(presto::Deployment& cell, double mean_horizon_steps);

// Times SummaryCache::CoverageFraction over PAST-sized windows of one sensor's cache.
double ReplayCoverage(presto::Deployment& cell, presto::Duration past_window,
                      uint64_t seed);

// Times one world-model read (TemperatureField::MeasureAt) on a standalone field.
double ReplayMeasure(const presto::TemperatureParams& params, int nodes,
                     double correlation, presto::Duration sensing_period);

struct WireReplay {
  double encode_ns = 0.0;
  double decode_ns = 0.0;
};

// Times EncodeFedFrame / DecodeFedFrame on kStep frames carrying `mails` FedMail
// entries, half query requests and half responses.
WireReplay ReplayFedWire(int mails, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_

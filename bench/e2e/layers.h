// Isolated timings of single layers' public functions, run after the
// measured window and sized to the shapes that window produced.
#ifndef TM2C_BENCH_E2E_LAYERS_H_
#define TM2C_BENCH_E2E_LAYERS_H_

#include <string>
#include <vector>

#include "bench/e2e/e2e.h"

namespace tm2c::e2e {

struct LayerShapes {
  uint32_t batch_entries = 1;  // mean stripes per kBatchAcquire
  uint32_t record_words = 3;   // mean commit-record payload words
  BackendKind backend = BackendKind::kThreads;
  std::string dir;             // scratch directory for WAL files and sockets
  uint64_t seed = 1;
};

struct LayerTiming {
  const char* name;
  const char* unit;
  double value;
  Span span;  // when the measurement ran, for the trace
};

std::vector<LayerTiming> MeasureLayers(const LayerShapes& shapes, const Workload& workload);

}  // namespace tm2c::e2e

#endif  // TM2C_BENCH_E2E_LAYERS_H_

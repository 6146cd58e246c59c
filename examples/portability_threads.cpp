// Portability (Section 7): the exact same protocol code — DtmService,
// TxRuntime, contention managers — running on real OS threads instead of
// the simulator. Lock-free SPSC rings stand in for the Barrelfish-style
// cache-line channels of the paper's multi-core port.
//
//   $ ./examples/portability_threads --cores=4 --service-cores=2
#include <cstdio>

#include "src/common/flags.h"
#include "src/tm/tm_system.h"

int main(int argc, char** argv) {
  using namespace tm2c;

  int cores = 4;
  int service_cores = 2;
  int increments = 2000;
  bool pin = false;

  FlagSet flags;
  flags.Register("cores", &cores, "OS threads to spawn");
  flags.Register("service-cores", &service_cores, "how many of them run the DTM service");
  flags.Register("increments", &increments, "transactional increments per app thread");
  flags.Register("pin", &pin, "pin each core thread to a host CPU");
  flags.Parse(argc, argv);

  TmSystemConfig config;
  config.backend = BackendKind::kThreads;
  config.sim.platform = MakeOpteronPlatform();
  config.sim.num_cores = static_cast<uint32_t>(cores);
  config.sim.num_service = static_cast<uint32_t>(service_cores);
  config.sim.shmem_bytes = 1 << 20;
  config.pin_threads = pin;
  config.tm.cm = CmKind::kBackoffRetry;  // the CM the paper ported first
  TmSystem system(config);
  const uint64_t counter = system.allocator().AllocGlobal(8);

  // Service threads run the very same DtmService loop as the simulator; app
  // threads run their transactions through the very same TxRuntime.
  system.SetAllAppBodies([counter, increments](CoreEnv&, TxRuntime& rt) {
    for (int k = 0; k < increments; ++k) {
      rt.Execute([counter](Tx& tx) { tx.Write(counter, tx.Read(counter) + 1); });
    }
  });
  system.Run();

  const TxStats stats = system.MergedStats();
  const uint32_t num_app = system.num_app_cores();
  const uint64_t expected = static_cast<uint64_t>(num_app) * increments;
  const uint64_t value = system.shmem().LoadWord(counter);
  std::printf("threads=%d (%u app / %u dtm), %d increments each\n", cores, num_app,
              static_cast<uint32_t>(service_cores), increments);
  std::printf("counter = %llu (expected %llu) -> %s\n", static_cast<unsigned long long>(value),
              static_cast<unsigned long long>(expected), value == expected ? "OK" : "WRONG");
  std::printf("commits = %llu, aborts = %llu (real concurrency, real races)\n",
              static_cast<unsigned long long>(stats.commits),
              static_cast<unsigned long long>(stats.aborts));
  return value == expected ? 0 : 1;
}

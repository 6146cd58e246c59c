#include "bench/e2e/layers.h"

#include <algorithm>
#include <thread>

#include "src/cm/contention_manager.h"
#include "src/dslock/lock_table.h"
#include "src/durability/wal.h"
#include "src/runtime/process_system.h"
#include "src/runtime/spsc_channel.h"
#include "src/runtime/thread_system.h"
#include "src/runtime/wire.h"

namespace tm2c::e2e {
namespace {

// Every timing is the median over kBatches timed batches, after one
// untimed batch, so a descheduled batch moves no result.
constexpr uint32_t kBatches = 15;

volatile uint32_t crc_sink = 0;

// Per-call ns of `fn()`, called `calls` times per batch.
template <typename Fn>
double NsPerCall(uint32_t calls, Fn&& fn) {
  std::vector<double> per_call;
  for (uint32_t b = 0; b <= kBatches; ++b) {
    const uint64_t t0 = NowNs();
    for (uint32_t i = 0; i < calls; ++i) {
      fn();
    }
    if (b > 0) {
      per_call.push_back(static_cast<double>(NowNs() - t0) / calls);
    }
  }
  return Median(per_call);
}

double HostGetNs(const Workload& workload, uint64_t seed) {
  const TxStoreApi& store = workload.ProbeStore();
  Rng rng(seed);
  std::vector<uint64_t> keys(4096);
  for (uint64_t& k : keys) {
    k = workload.ProbeKey(rng);
  }
  std::vector<uint64_t> value(store.value_words());
  size_t i = 0;
  uint64_t hits = 0;
  const double ns = NsPerCall(static_cast<uint32_t>(keys.size()), [&] {
    hits += store.HostGet(keys[i++ % keys.size()], value.data()) ? 1 : 0;
  });
  TM2C_CHECK(hits > 0);
  return ns;
}

// TryAcquireMany of `n` fresh read-lock stripes; every batch releases its
// locks untimed so the table stays the size a live partition holds.
double TryAcquireManyNs(uint32_t n, uint64_t seed) {
  constexpr uint32_t kCalls = 512;
  LockTable table;
  const std::unique_ptr<ContentionManager> cm = MakeContentionManager(CmKind::kFairCm);
  TxInfo who;
  who.core = 1;
  who.epoch = (uint64_t{1} << 32) | 1;
  Rng rng(seed);
  std::vector<uint64_t> addrs(uint64_t{kCalls} * n);
  std::vector<double> per_call;
  for (uint32_t b = 0; b <= kBatches; ++b) {
    for (uint64_t& a : addrs) {
      a = rng.NextBelow(uint64_t{1} << 24) * kWordBytes;
    }
    const uint64_t t0 = NowNs();
    for (uint32_t c = 0; c < kCalls; ++c) {
      table.TryAcquireMany(who, &addrs[uint64_t{c} * n], n, 0, *cm);
    }
    const uint64_t t1 = NowNs();
    table.ReleaseAllOf(who.core);
    if (b > 0) {
      per_call.push_back(static_cast<double>(t1 - t0) / kCalls);
    }
  }
  return Median(per_call);
}

// One-way SpscChannel handoff: half the round trip of a message bounced
// between two spinning threads over a pair of rings.
double SpscHandoffNs() {
  constexpr uint32_t kRounds = 20000;
  SpscChannel ping(256), pong(256);
  std::thread echo([&] {
    Message m;
    for (uint64_t i = 0; i < uint64_t{kBatches + 1} * kRounds; ++i) {
      while (!ping.TryPop(&m)) {
      }
      while (!pong.TryPush(m)) {
      }
    }
  });
  std::vector<double> per_handoff;
  Message m;
  for (uint32_t b = 0; b <= kBatches; ++b) {
    const uint64_t t0 = NowNs();
    for (uint32_t r = 0; r < kRounds; ++r) {
      m.w0 = r;
      while (!ping.TryPush(m)) {
      }
      while (!pong.TryPop(&m)) {
      }
    }
    if (b > 0) {
      per_handoff.push_back(static_cast<double>(NowNs() - t0) / (2.0 * kRounds));
    }
  }
  echo.join();
  return Median(per_handoff);
}

// CoreEnv Send/Recv echo round trip through a bare two-core backend of the
// workload's kind: one application core, one service core that answers.
double EchoRttUs(BackendKind backend, const std::string& dir) {
  const uint32_t echoes = backend == BackendKind::kProcesses ? 500 : 2000;
  std::unique_ptr<SystemBackend> sys;
  if (backend == BackendKind::kProcesses) {
    ProcessSystemConfig cfg;
    cfg.platform = PlatformByName("scc");
    cfg.num_cores = 2;
    cfg.num_service = 1;
    cfg.shmem_bytes = 1 << 16;
    cfg.run_dir = dir;
    sys = std::make_unique<ProcessSystem>(cfg);
  } else {
    ThreadSystemConfig cfg;
    cfg.platform = PlatformByName("scc");
    cfg.num_cores = 2;
    cfg.num_service = 1;
    cfg.shmem_bytes = 1 << 16;
    sys = std::make_unique<ThreadSystem>(cfg);
  }
  const uint32_t service = sys->deployment().ServiceCore(0);
  const uint32_t app = sys->deployment().app_cores()[0];
  sys->SetCoreMain(service, [](CoreEnv& env) {
    for (;;) {
      Message m = env.Recv();
      if (m.type == MsgType::kShutdown) {
        return;
      }
      Message rsp;
      rsp.type = MsgType::kEchoRsp;
      rsp.w0 = m.w0;
      env.Send(m.src, std::move(rsp));
    }
  });
  std::vector<double> per_echo;
  SystemBackend* raw = sys.get();
  sys->SetCoreMain(app, [&](CoreEnv& env) {
    for (uint32_t b = 0; b <= kBatches; ++b) {
      const uint64_t t0 = NowNs();
      for (uint32_t i = 0; i < echoes; ++i) {
        Message m;
        m.type = MsgType::kEcho;
        m.w0 = i;
        env.Send(service, std::move(m));
        TM2C_CHECK(env.Recv().type == MsgType::kEchoRsp);
      }
      if (b > 0) {
        per_echo.push_back(static_cast<double>(NowNs() - t0) / echoes / 1000.0);
      }
    }
    raw->RequestShutdown(service);
  });
  sys->Run(UINT64_MAX);
  return Median(per_echo);
}

// EncodeFrame + WireDecoder round trip of one kBatchAcquire frame.
double WireCodecNs(uint32_t entries) {
  Message m;
  m.type = MsgType::kBatchAcquire;
  m.src = 1;
  m.w1 = (uint64_t{1} << 32) | 7;
  m.extra.resize(entries);
  for (uint32_t i = 0; i < entries; ++i) {
    m.extra[i] = uint64_t{i} * 64;
  }
  std::vector<uint8_t> frame;
  WireDecoder decoder;
  uint32_t dst = 0;
  Message out;
  return NsPerCall(4096, [&] {
    frame.clear();
    EncodeFrame(2, m, &frame);
    decoder.Feed(frame.data(), frame.size());
    TM2C_CHECK(decoder.TryNext(&dst, &out) == WireDecodeStatus::kOk);
  });
}

double Crc32NsPerKib(uint64_t seed) {
  std::vector<uint8_t> buf(4096);
  Rng rng(seed);
  for (uint8_t& b : buf) {
    b = static_cast<uint8_t>(rng.Next());
  }
  uint32_t sink = 0;
  const double ns = NsPerCall(256, [&] { sink ^= Crc32(buf.data(), buf.size()); });
  crc_sink = sink;  // keeps the calls observable to the optimizer
  return ns / 4.0;
}

// Wal::Append of one record of `words` payload words to a file-backed log
// (buffered: the record lands in the stdio buffer).
double WalAppendNs(uint32_t words, const std::string& path) {
  Wal wal(Wal::Options{false, path, false});
  std::vector<uint64_t> payload(words, 42);
  return NsPerCall(1000, [&] { wal.Append(payload.data(), words); });
}

// Wal::Flush (buffered) with one freshly appended record to push out.
double WalFlushUs(uint32_t words, const std::string& path) {
  constexpr uint32_t kFlushes = 200;
  Wal wal(Wal::Options{false, path, false});
  std::vector<uint64_t> payload(words, 42);
  std::vector<double> per_flush;
  for (uint32_t b = 0; b <= kBatches; ++b) {
    uint64_t total = 0;
    for (uint32_t i = 0; i < kFlushes; ++i) {
      wal.Append(payload.data(), words);
      const uint64_t t0 = NowNs();
      wal.Flush();
      total += NowNs() - t0;
    }
    if (b > 0) {
      per_flush.push_back(static_cast<double>(total) / kFlushes / 1000.0);
    }
  }
  return Median(per_flush);
}

}  // namespace

std::vector<LayerTiming> MeasureLayers(const LayerShapes& shapes, const Workload& workload) {
  std::vector<LayerTiming> out;
  auto run = [&out](const char* name, const char* unit, auto&& fn) {
    const uint64_t start = NowNs();
    const double value = fn();
    out.push_back({name, unit, value, {name, start, NowNs()}});
  };
  run("apps.host_get_ns", "ns", [&] { return HostGetNs(workload, shapes.seed); });
  run("dslock.try_acquire_many_ns", "ns",
      [&] { return TryAcquireManyNs(shapes.batch_entries, shapes.seed); });
  run("runtime.spsc_handoff_ns", "ns", [] { return SpscHandoffNs(); });
  run("runtime.echo_rtt_us", "us",
      [&] { return EchoRttUs(shapes.backend, shapes.dir + "/echo"); });
  run("runtime.wire_codec_ns", "ns", [&] { return WireCodecNs(shapes.batch_entries); });
  run("durability.crc32_ns_per_kib", "ns/KiB", [&] { return Crc32NsPerKib(shapes.seed); });
  run("durability.wal_append_ns", "ns",
      [&] { return WalAppendNs(shapes.record_words, shapes.dir + "/append.wal"); });
  run("durability.wal_flush_us", "us",
      [&] { return WalFlushUs(shapes.record_words, shapes.dir + "/flush.wal"); });
  return out;
}

}  // namespace tm2c::e2e

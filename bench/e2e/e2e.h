// Shared pieces of tm2c_e2e: the clock, the per-thread op
// recorder (latency samples, attempt-phase spans, tallies) and the
// workload interface.
//
// tm2c_e2e measures TM2C from outside only. Every op is one call into
// TxRuntime::Execute made through OpRecorder::Execute, which times the
// call. When tracing, the transaction body is wrapped in an AttemptGuard
// whose constructor and destructor bracket each attempt; the destructor
// tells an unwinding attempt (an abort in flight) from a returning one with
// std::uncaught_exceptions, so nothing in the runtime's control flow is
// caught or altered.
#ifndef TM2C_BENCH_E2E_E2E_H_
#define TM2C_BENCH_E2E_E2E_H_

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/tx_store_api.h"
#include "src/common/rng.h"
#include "src/tm/tm_system.h"

namespace tm2c::e2e {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0.0 : (n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0);
}

// A closed interval on the NowNs clock, named for the trace.
struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

// Where an op's time goes. kExecute is the committed attempt's body,
// kCommit runs from its return to Execute's return, kAborted covers every
// attempt that did not commit (a commit-phase abort counts whole, failed
// lock round trip included), kBackoff runs from an unwind to the next
// attempt. Whatever is left of the op is Execute's own bookkeeping.
enum Phase : uint8_t { kExecute = 0, kCommit, kAborted, kBackoff, kNumPhases };

// Per-workload counters of committed ops, summed over threads after the
// run for the invariant checks (slot meaning is the workload's).
using Tally = std::array<uint64_t, 4>;

// One application thread's recorder: touched only by its thread during the
// run, read by main after it.
class alignas(64) OpRecorder {
 public:
  explicit OpRecorder(bool tracing) : tracing_(tracing) {}

  OpRecorder(const OpRecorder&) = delete;
  OpRecorder& operator=(const OpRecorder&) = delete;

  // Runs `body` as one transaction and records the call. Ops before
  // EnterWindow are warm-up: executed and tallied, never sampled.
  template <typename Body>
  void Execute(TxRuntime& rt, const char* name, bool is_write, const Body& body) {
    const uint64_t start = NowNs();
    if (!(tracing_ && in_window_)) {
      rt.Execute(body);
      Finish(name, is_write, start, NowNs());
      return;
    }
    sample_ = window_ops_ % kSampleStride == 0 && sampled_ops_ < kMaxSampledOps;
    op_start_ = start;
    last_ = Last::kNone;
    rt.Execute([this, &body](Tx& tx) {
      const AttemptGuard guard(this);
      body(tx);
    });
    const uint64_t end = NowNs();
    AddPhase(kExecute, entry_, mark_);
    AddPhase(kCommit, mark_, end);
    Finish(name, is_write, start, end);
  }

  // The op's result was wrong (a loaded key reported absent, a scan out of
  // order): counted against the op just executed.
  void Fail() {
    ++failed_total_;
    if (in_window_) {
      ++failed_;
    }
  }

  void Add(size_t slot, uint64_t n = 1) { tally_[slot] += n; }

  // Starts the measured window; its ops are binned by start time into
  // `slices` slices of `slice_ns` each.
  void EnterWindow(uint64_t window_start, uint64_t slice_ns, size_t slices) {
    in_window_ = true;
    last_op_end_ = 0;
    window_start_ = window_start;
    slice_ns_ = slice_ns;
    read_ns_.resize(slices);
    write_ns_.resize(slices);
  }

  // Window latencies in ns, per slice.
  const std::vector<std::vector<uint32_t>>& read_ns() const { return read_ns_; }
  const std::vector<std::vector<uint32_t>>& write_ns() const { return write_ns_; }
  uint64_t window_ops() const { return window_ops_; }
  uint64_t failed() const { return failed_; }
  uint64_t failed_total() const { return failed_total_; }
  uint64_t ops_total() const { return ops_total_; }
  uint64_t write_ops_total() const { return write_ops_total_; }
  const Tally& tally() const { return tally_; }
  // Traced runs only: window sums of op time, phase time and benchmark-loop
  // time (op end to next op start), and the sampled spans.
  uint64_t op_ns() const { return op_ns_; }
  uint64_t phase_ns(Phase p) const { return phase_ns_[p]; }
  uint64_t loop_ns() const { return loop_ns_; }
  uint64_t loop_gaps() const { return loop_gaps_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  // Full spans are kept for every kSampleStride-th window op, up to
  // kMaxSampledOps per thread; the sums count every op.
  static constexpr uint64_t kSampleStride = 16;
  static constexpr uint64_t kMaxSampledOps = 4096;

  enum class Last : uint8_t { kNone, kUnwound, kReturned };

  class AttemptGuard {
   public:
    explicit AttemptGuard(OpRecorder* rec) : rec_(rec), uncaught_(std::uncaught_exceptions()) {
      rec_->BeginAttempt(NowNs());
    }
    ~AttemptGuard() { rec_->EndAttempt(NowNs(), std::uncaught_exceptions() > uncaught_); }
    AttemptGuard(const AttemptGuard&) = delete;
    AttemptGuard& operator=(const AttemptGuard&) = delete;

   private:
    OpRecorder* rec_;
    int uncaught_;
  };

  void BeginAttempt(uint64_t now) {
    if (last_ == Last::kUnwound) {
      AddPhase(kBackoff, mark_, now);
    } else if (last_ == Last::kReturned) {
      AddPhase(kAborted, entry_, now);  // the commit refused after the body returned
    }
    entry_ = now;
  }

  void EndAttempt(uint64_t now, bool unwinding) {
    if (unwinding) {
      AddPhase(kAborted, entry_, now);
      last_ = Last::kUnwound;
    } else {
      last_ = Last::kReturned;
    }
    mark_ = now;
  }

  void AddPhase(Phase phase, uint64_t start, uint64_t end) {
    static constexpr const char* kNames[kNumPhases] = {"tm.execute", "tm.commit", "tm.aborted",
                                                       "tm.backoff"};
    phase_ns_[phase] += end - start;
    if (sample_) {
      spans_.push_back({kNames[phase], start, end});
    }
  }

  void Finish(const char* name, bool is_write, uint64_t start, uint64_t end) {
    ++ops_total_;
    write_ops_total_ += is_write ? 1 : 0;
    if (!in_window_) {
      return;
    }
    ++window_ops_;
    const uint64_t ns = std::min<uint64_t>(end - start, UINT32_MAX);
    const size_t slice =
        std::min<size_t>((start - window_start_) / slice_ns_, read_ns_.size() - 1);
    (is_write ? write_ns_ : read_ns_)[slice].push_back(static_cast<uint32_t>(ns));
    if (tracing_) {
      op_ns_ += end - start;
      if (last_op_end_ != 0) {
        loop_ns_ += start - last_op_end_;
        ++loop_gaps_;
      }
      last_op_end_ = end;
      if (sample_) {
        spans_.push_back({name, op_start_, end});
        ++sampled_ops_;
        sample_ = false;
      }
    }
  }

  const bool tracing_;
  bool in_window_ = false;
  uint64_t window_start_ = 0;
  uint64_t slice_ns_ = 1;
  std::vector<std::vector<uint32_t>> read_ns_;
  std::vector<std::vector<uint32_t>> write_ns_;
  uint64_t window_ops_ = 0;
  uint64_t failed_ = 0;
  uint64_t failed_total_ = 0;
  uint64_t ops_total_ = 0;
  uint64_t write_ops_total_ = 0;
  Tally tally_{};

  // Current traced op.
  bool sample_ = false;
  Last last_ = Last::kNone;
  uint64_t op_start_ = 0;
  uint64_t entry_ = 0;  // current attempt's body entry
  uint64_t mark_ = 0;   // last attempt's body exit (return or unwind)

  uint64_t op_ns_ = 0;
  std::array<uint64_t, kNumPhases> phase_ns_{};
  uint64_t loop_ns_ = 0;
  uint64_t loop_gaps_ = 0;
  uint64_t last_op_end_ = 0;
  uint64_t sampled_ops_ = 0;
  std::vector<Span> spans_;
};

// Fixed shape of a workload's deployment.
struct WorkloadSpec {
  const char* name;
  BackendKind backend;
  uint32_t cores;
  uint32_t service;
  uint64_t shmem_bytes;
  bool durable;
  const char* shape;  // one line for the result metadata
};

const std::vector<WorkloadSpec>& AllSpecs();
const WorkloadSpec* FindSpec(const std::string& name);

// The fixed configuration every workload shares (platform scc, FairCM,
// normal mode, lazy writes, max_batch 16, pipeline depth 1, SPSC channel,
// unpinned) plus the spec's backend, cores and durability.
TmSystemConfig MakeSystemConfig(const WorkloadSpec& spec, uint64_t seed,
                                const std::string& run_dir);

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds the stores on `sys` and loads them; a durable workload also
  // captures checkpoint 0. Part of the measured set-up.
  virtual void Load(TmSystem& sys) = 0;

  // Draws one op for application thread `thread` and runs it through
  // `rec`. Called concurrently by every application thread.
  virtual void RunOp(uint32_t thread, Rng& rng, TxRuntime& rt, OpRecorder& rec) = 0;

  // Post-run invariants over the final state and the summed tallies; one
  // string per violation.
  virtual std::vector<std::string> Check(TmSystem& sys, const Tally& tally) const = 0;

  // Corrupts one slab word so that Check must report it.
  virtual void PlantFault(TmSystem& sys) = 0;

  // The store whose HostGet the layer phase times, and a key drawn the
  // way the workload draws its ops' keys.
  virtual const TxStoreApi& ProbeStore() const = 0;
  virtual uint64_t ProbeKey(Rng& rng) const = 0;
};

std::unique_ptr<Workload> MakeWorkload(const WorkloadSpec& spec);

}  // namespace tm2c::e2e

#endif  // TM2C_BENCH_E2E_E2E_H_

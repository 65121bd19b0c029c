// Shared declarations of the mtt benchmark (perfbench).
//
// The benchmark drives the library only through its public entry points
// (experiment::executeRun, explore::exploreSpec, fleet::runExperimentFleet
// with fleet::runWorker, the farm journal).  Everything it measures per
// layer is observed from outside the program: a wrapping SchedulePolicy, a
// counting Listener, RunOptions::dispatchTiming, a counting FaultInjector
// that never injects, and timers around the public calls.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/fault.hpp"
#include "core/listener.hpp"
#include "experiment/experiment.hpp"
#include "explore/explorer.hpp"
#include "rt/policy.hpp"

namespace perfbench {

using namespace mtt;

// --- clock and estimators -------------------------------------------------

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median (0 for an empty vector).
double median(std::vector<double> v);

// --- run configuration ----------------------------------------------------

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Reduced sizes: every phase and every check runs, in seconds.
  bool smoke = false;
  /// Pin the benchmark's threads (see README: unpinned runs are bimodal).
  bool pin = true;
  /// The CPUs the process was allowed before it pinned anything.
  std::vector<int> cpus;
  /// Scratch directory (journals, sockets); relative to the checkout and
  /// removed at exit.
  std::string tmpDir;
  /// Where a traced run writes its spans (empty: not written).
  std::string traceOut;
};

/// The CPUs this process may use, in ascending order.
std::vector<int> allowedCpus();
/// Pins the calling thread to one CPU; threads it creates inherit the mask.
void pinCurrentThread(int cpu);

// --- result ---------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Output-check failures (empty = correct).
  std::vector<std::string> errors;
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double v, const std::string& unit) {
    metrics[name] = Metric{v, unit};
  }
  void require(const std::string& err) {
    if (!err.empty()) errors.push_back(err);
  }
};

/// CPU time of this process, all threads, since it started (the set-up
/// clock: it counts the set-up's own work, not the time the process waited
/// for a CPU).
double processCpuSeconds();
/// Peak resident set of this process, in MB (getrusage).
double peakRssMb();

// --- tracing (kept in memory, written once at the end) --------------------

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  /// Opens a span; returns its id (-1 when tracing is off).
  int begin(const std::string& name, int parent);
  void end(int id);
  /// Writes every span as one JSON object per line.
  void write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int parent = -1;
    std::int64_t start = 0;
    std::int64_t end = 0;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span.
class SpanScope {
 public:
  SpanScope(Tracer& t, const std::string& name, int parent)
      : t_(t), id_(t.begin(name, parent)) {}
  ~SpanScope() { t_.end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int id() const { return id_; }

 private:
  Tracer& t_;
  int id_;
};

// --- outside-in probes (probes.cpp) ---------------------------------------

/// Decision counts shared by every CountingPolicy of one measurement.
struct PolicyCounts {
  std::uint64_t picks = 0;
  std::uint64_t storePicks = 0;
  std::uint64_t pickNs = 0;
};

/// Wrapping policy: forwards to `inner`, counts thread and store decisions
/// into `counts` and times the inner thread pick.
class CountingPolicy final : public rt::SchedulePolicy {
 public:
  CountingPolicy(std::unique_ptr<rt::SchedulePolicy> inner,
                 PolicyCounts& counts)
      : inner_(std::move(inner)), counts_(counts) {}
  void onRunStart(std::uint64_t seed) override { inner_->onRunStart(seed); }
  ThreadId pick(const rt::PickContext& ctx) override;
  std::uint32_t pickStore(const rt::StorePickContext& ctx) override;
  void onRunEnd() override { inner_->onRunEnd(); }

 private:
  std::unique_ptr<rt::SchedulePolicy> inner_;
  PolicyCounts& counts_;
};

/// Counting listener: every event, thread spawns, and the virtual ticks of
/// completed sleeps (the controlled runtime ends a sleep with a Yield event
/// whose arg is the ticks slept; a plain yield carries arg 0).
class CountingListener final : public Listener {
 public:
  void onEvent(const Event& e) override {
    ++events;
    if (e.kind == EventKind::ThreadSpawn) ++spawns;
    if (e.kind == EventKind::Yield) sleepTicks += e.arg;
  }
  std::string_view listenerName() const override { return "perfbench"; }
  std::uint64_t events = 0;
  std::uint64_t spawns = 0;
  std::uint64_t sleepTicks = 0;
};

/// Counting fault injector: always Action::None; counts operations and
/// bytes per site and keeps the per-thread timeline of fleet worker I/O
/// (for record gaps and worker busy share).
class CountingInjector final : public core::FaultInjector {
 public:
  core::FaultDecision onOp(core::FaultOp op, const char* site,
                           std::size_t bytes) override;

  struct SiteCount {
    std::uint64_t ops = 0;
    std::uint64_t bytes = 0;
  };
  std::map<std::string, SiteCount> sites() const;
  std::uint64_t ops(const std::string& site) const;

  /// One fleet worker's I/O timeline: (ns, isSend) per operation.
  using Timeline = std::vector<std::pair<std::int64_t, bool>>;
  std::vector<Timeline> workerTimelines() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, SiteCount> sites_;
  std::map<std::thread::id, Timeline> workers_;
};

// --- tool stacks and catalog (workloads.cpp) ------------------------------

/// The catalog workload's tool configuration: random policy, a race
/// detector, the lock-graph detector, a noise maker and a coverage model.
experiment::ToolConfig catalogTools();
/// makeToolStack(tool) in its canonical order, plus an optional borrowed
/// analysis listener registered before the noise maker.
experiment::ToolStack buildStack(const experiment::ToolConfig& tool,
                                 Listener* extra);
/// What a direct controlled run of `program` shows from outside: the
/// wrapping policy's decisions, the counting listener's sleep ticks, and
/// the runtime's own steps and events.
struct DirectCounts {
  std::uint64_t decisions = 0;
  std::uint64_t steps = 0;
  std::uint64_t sleepTicks = 0;
  std::uint64_t events = 0;
};
DirectCounts directRun(const std::string& program,
                       const experiment::ToolConfig& tool, std::uint64_t seed);
/// "threads", "evloop" or "atomics": the program's family tag.
std::string familyOf(const std::string& program);

// --- output checks (checks.cpp) -------------------------------------------
// Each returns "" when the property holds, otherwise a diagnostic.  They
// take plain data so the self-test can feed each one a deliberately wrong
// input.

struct CampaignRow {
  std::string program;
  bool control = false;
  experiment::RunObservation obs;
};
std::string checkControlsQuiet(const std::vector<CampaignRow>& rows);
std::string checkEqualCount(const std::string& what, std::uint64_t counted,
                            std::uint64_t reported);
/// The runtime takes a step per decision and otherwise only advances its
/// virtual clock while every runnable thread sleeps; those jumps lie inside
/// sleep intervals, so `steps` - `decisions` must lie in [0, sleepTicks].
/// Without a sleep that makes decisions == steps exactly.
std::string checkDecisions(const std::string& what, std::uint64_t decisions,
                           std::uint64_t steps, std::uint64_t sleepTicks);
/// Two observations of the same (spec, run) must encode identically once
/// their wall-clock fields are zeroed.
std::string checkSameObservation(const experiment::RunObservation& a,
                                 const experiment::RunObservation& b);

struct Witness {
  std::string program;
  std::uint64_t seed = 0;
  std::string noise;
  double strength = 0.0;
  rt::Schedule schedule;
};
/// The witness must be the schedule its seed records, must replay
/// (exact) under ReplayPolicy, and must reproduce the recorded failure
/// fingerprint.
std::string checkWitness(const Witness& w);

struct SpaceResult {
  std::string program;
  explore::ExploreResult result;
  std::set<std::string> outcomes;  ///< distinct outcomes over schedules
};
std::string checkExhaustedClean(const SpaceResult& s);
/// Sleep sets must keep the verdict and the outcome set of the full
/// enumeration and use no more schedules.
std::string checkSleepMatchesFull(const SpaceResult& sleep,
                                  const SpaceResult& full);

/// Every run index 0..n-1 folded exactly once, in order.
std::string checkIndicesOnce(
    const std::vector<experiment::RunObservation>& records, std::uint64_t n);
std::string checkBytesEqual(const std::string& what, const std::string& got,
                            const std::string& want);
/// The journal text a serial fold of `records` produces (format of
/// farm/journal.hpp), built here without the farm.
std::string referenceJournal(const std::string& config, std::uint64_t total,
                             const std::vector<experiment::RunObservation>&
                                 records);
/// Timing-free find-rate report of a campaign result.
std::string renderReport(const experiment::ExperimentResult& r);
/// renderReport of a serial experiment::accumulate fold of `records`.
std::string foldReport(const std::string& program, const std::string& label,
                       const std::vector<experiment::RunObservation>& records);

/// Runs each workload at smoke size and feeds every check a wrong input;
/// returns the number of failed self-test cases.
int selfTest(const Config& base);

// --- workloads (workloads.cpp) --------------------------------------------

Outcome runExperimentCatalog(const Config& cfg, Tracer& tracer);
Outcome runExploreExhaustive(const Config& cfg, Tracer& tracer);
Outcome runFleetCampaign(const Config& cfg, Tracer& tracer);

}  // namespace perfbench

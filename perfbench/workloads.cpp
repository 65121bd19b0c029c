#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "farm/farm.hpp"
#include "farm/journal.hpp"
#include "farm/record_io.hpp"
#include "fleet/coordinator.hpp"
#include "fleet/protocol.hpp"
#include "fleet/worker.hpp"
#include "rt/harness.hpp"
#include "suite/program.hpp"

namespace perfbench {

namespace fs = std::filesystem;

// --- shared helpers -----------------------------------------------------------

experiment::ToolConfig catalogTools() {
  experiment::ToolConfig tool;
  tool.policy = "random";
  tool.detectors = {"fasttrack"};
  tool.lockGraph = true;
  tool.coverage = "sync-contention";
  tool.noiseName = "mixed";
  tool.noiseOpts.strength = 0.25;
  return tool;
}

experiment::ToolStack buildStack(const experiment::ToolConfig& tool,
                                 Listener* extra) {
  experiment::ToolStackBuilder b;
  for (const std::string& d : tool.detectors) b.detector(d);
  if (tool.lockGraph) b.lockGraph();
  if (!tool.coverage.empty()) b.coverage(tool.coverage);
  if (extra != nullptr) b.borrowed(extra);
  b.noise(tool.noiseName, tool.noiseOpts);
  return b.build();
}

DirectCounts directRun(const std::string& program,
                       const experiment::ToolConfig& tool, std::uint64_t seed) {
  PolicyCounts pc;
  CountingListener counter;
  auto p = suite::makeProgram(program);
  p->reset();
  rt::ControlledRuntime runtime(
      std::make_unique<CountingPolicy>(experiment::makePolicy(tool.policy), pc));
  experiment::ToolStack stack = buildStack(tool, &counter);
  stack.reset();
  stack.attach(runtime);
  rt::RunOptions opts = p->defaultRunOptions();
  opts.seed = seed;
  opts.programName = program;
  const rt::RunResult rr =
      runtime.run([&](rt::Runtime& x) { p->body(x); }, opts);
  return DirectCounts{pc.picks + pc.storePicks, rr.steps, counter.sleepTicks,
                      rr.events};
}

std::string familyOf(const std::string& program) {
  const auto tags = suite::ProgramRegistry::instance().tagsOf(program);
  for (const char* f : {"evloop", "atomics", "threads"}) {
    if (std::find(tags.begin(), tags.end(), f) != tags.end()) return f;
  }
  return "threads";
}

namespace {

/// Times of the items the timed phase repeats: every block runs the same
/// items (one program's campaign runs, one hunt, one exploration, one fleet
/// campaign) with identical work.
///
/// Estimator: an item's time is its fastest repetition over a fixed number
/// of blocks, and a metric sums item minimums.  Host noise only ever slows
/// an item down, and short items often fit a quiet window of the host, so
/// sums of per-item minimums repeat far better between processes than
/// block medians or the fastest whole block (see README, "Estimator").
class ItemTimes {
 public:
  void add(const std::string& item, double runs, double seconds,
           bool inResult) {
    Item& it = items_[item];
    it.runs = runs;
    it.inResult = inResult;
    it.seconds.push_back(seconds);
    totalRuns_ += runs;
  }
  /// Σ minimum time over the items of the workload's fixed task.
  double resultSeconds() const { return sum(true); }
  /// Runs of one repetition of every item over Σ minimum time.
  double runsPerSecond() const {
    double runs = 0.0;
    for (const auto& [name, it] : items_) runs += it.runs;
    return runs / sum(false);
  }
  std::uint64_t totalRuns() const {
    return static_cast<std::uint64_t>(totalRuns_);
  }
  /// CPU time from process start to the first operation of the warm-up
  /// block: loading, the program registry, the catalog, specs and tool
  /// stacks.
  double setupSeconds = 0.0;
  void describe(const char* what, std::size_t blocks) const {
    double med = 0.0;
    for (const auto& [name, it] : items_) med += median(it.seconds);
    std::fprintf(stderr,
                 "perfbench: %s: %zu blocks, %zu items; result %.5f s; "
                 "runs/s %.1f (block sum of medians %.5f s, of minimums "
                 "%.5f s)\n",
                 what, blocks, items_.size(), resultSeconds(),
                 runsPerSecond(), med, sum(false));
  }

 private:
  struct Item {
    double runs = 0.0;
    bool inResult = false;
    std::vector<double> seconds;
  };
  double sum(bool resultOnly) const {
    double t = 0.0;
    for (const auto& [name, it] : items_) {
      if (resultOnly && !it.inResult) continue;
      t += *std::min_element(it.seconds.begin(), it.seconds.end());
    }
    return t;
  }
  std::map<std::string, Item> items_;
  double totalRuns_ = 0.0;
};

/// Runs `body` (which returns the runs it executed) as one repetition of
/// `item`, recording it when `times` is set (nullptr: warm-up).
template <class F>
void timeItem(ItemTimes* times, const std::string& item, bool inResult,
              F&& body) {
  const std::int64_t t0 = nowNs();
  const double runs = static_cast<double>(body());
  if (times != nullptr) {
    times->add(item, runs, static_cast<double>(nowNs() - t0) / 1e9, inResult);
  }
}

/// The CPU block `b` runs on: blocks rotate over the allowed CPUs, so one
/// CPU that the host slows for a while cannot slow every block (-1 when
/// pinning is off).
int blockCpu(const Config& cfg, std::size_t b) {
  if (!cfg.pin) return -1;
  return cfg.cpus[b % cfg.cpus.size()];
}

/// A timed phase never runs longer than this, whatever the block count, so
/// a much slower build still ends within the run's time limit (with fewer
/// samples, which only makes its figures worse).
constexpr double kMaxTimedSeconds = 100.0;

/// The set-up clock stops here.  Then one untimed warm-up block and a fixed number of
/// timed blocks: `blocksPerSecond` is what the reference host runs in one
/// second, so the timed phase lasts about `cfg.seconds` there, and a faster
/// or slower build takes the minimum over the same number of samples.
/// Block `b` runs with the main thread pinned to blockCpu(b) and records
/// its items into the returned times.
template <class F>
ItemTimes timedBlocks(const Config& cfg, Tracer& tracer, int root,
                      const char* what, double blocksPerSecond, F&& block) {
  ItemTimes times;
  times.setupSeconds = processCpuSeconds();
  std::size_t b = 0;
  {
    SpanScope warm(tracer, "warmup", root);
    if (cfg.pin) pinCurrentThread(blockCpu(cfg, b));
    block(b++, nullptr);
  }
  const auto blocks = static_cast<std::size_t>(
      std::max(1.0, std::round(cfg.seconds * blocksPerSecond)));
  const std::int64_t cap =
      nowNs() + static_cast<std::int64_t>(kMaxTimedSeconds * 1e9);
  while (b <= blocks) {
    if (cfg.pin) pinCurrentThread(blockCpu(cfg, b));
    block(b++, &times);
    if (nowNs() > cap && b <= blocks) {
      std::fprintf(stderr,
                   "perfbench: %s: stopped after %zu of %zu blocks (%.0f s)\n",
                   what, b - 1, blocks, kMaxTimedSeconds);
      break;
    }
  }
  times.describe(what, b - 1);
  return times;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Every per-layer metric, zero where the workload does not use the layer.
void zeroLayers(Outcome& o) {
  const std::pair<const char*, const char*> layers[] = {
      {"rt.run_us.threads", "us"},
      {"rt.run_us.evloop", "us"},
      {"rt.run_us.atomics", "us"},
      {"rt.ns_per_decision", "ns"},
      {"rt.decisions_per_run", "count"},
      {"rt.spawns_per_run", "count"},
      {"rt.store_picks_per_run", "count"},
      {"policy.pick_ns", "ns"},
      {"core.events_per_run", "count"},
      {"core.deliveries_per_event", "count"},
      {"core.dispatch_ns_per_event", "ns"},
      {"race.ns_per_event", "ns"},
      {"deadlock.ns_per_event", "ns"},
      {"noise.ns_per_event", "ns"},
      {"noise.injections_per_run", "count"},
      {"coverage.ns_per_event", "ns"},
      {"coverage.snapshot_bytes", "bytes"},
      {"experiment.stack_reset_us", "us"},
      {"experiment.accumulate_ns", "ns"},
      {"explore.useful_ratio", "ratio"},
      {"explore.us_per_execution", "us"},
      {"explore.steps_per_execution", "count"},
      {"farm.record_encode_ns", "ns"},
      {"farm.record_decode_ns", "ns"},
      {"farm.journal_bytes_per_run", "bytes"},
      {"farm.journal_writes_per_1k_runs", "count"},
      {"farm.fsyncs_per_1k_runs", "count"},
      {"farm.journal_read_records_per_s", "1/s"},
      {"fleet.wire_bytes_per_run", "bytes"},
      {"fleet.net_ops_per_run", "count"},
      {"fleet.record_gap_us", "us"},
      {"fleet.fold_records_per_s", "1/s"},
      {"fleet.worker_busy_share", "ratio"},
  };
  for (const auto& [name, unit] : layers) o.set(name, 0.0, unit);
}

/// What the traced run gathers about controlled runs: per-family wall time
/// per run plus the wrapping policy's and the counting listener's counts.
struct RunLayers {
  std::map<std::string, std::vector<double>> runUs;  ///< by family
  double runSeconds = 0.0;
  std::uint64_t runs = 0;
  std::uint64_t events = 0;
  std::uint64_t deliveries = 0;
  double dispatchNs = 0.0;  ///< sum over runs of ns/event * events
  std::uint64_t injections = 0;
  std::uint64_t coverageBytes = 0;
  std::vector<double> resetUs;
  std::vector<double> accumulateNs;
  PolicyCounts policy;
  CountingListener listener;

  void addRun(const std::string& family, double seconds,
              const experiment::RunObservation& obs) {
    runUs[family].push_back(seconds * 1e6);
    runSeconds += seconds;
    ++runs;
    events += obs.events;
    deliveries += obs.dispatchDeliveries;
    dispatchNs += obs.dispatchNsPerEvent * static_cast<double>(obs.events);
    injections += obs.noiseInjections;
    coverageBytes += obs.coverage.size();
  }

  void report(Outcome& o) const {
    for (const char* f : {"threads", "evloop", "atomics"}) {
      auto it = runUs.find(f);
      if (it != runUs.end()) {
        o.set(std::string("rt.run_us.") + f, median(it->second), "us");
      }
    }
    const double n = static_cast<double>(runs);
    const double decisions =
        static_cast<double>(policy.picks + policy.storePicks);
    o.set("rt.ns_per_decision", ratio(runSeconds * 1e9, decisions), "ns");
    o.set("rt.decisions_per_run", ratio(decisions, n), "count");
    o.set("rt.spawns_per_run",
          ratio(static_cast<double>(listener.spawns), n), "count");
    o.set("rt.store_picks_per_run",
          ratio(static_cast<double>(policy.storePicks), n), "count");
    o.set("policy.pick_ns",
          ratio(static_cast<double>(policy.pickNs),
                static_cast<double>(policy.picks)),
          "ns");
    o.set("core.events_per_run", ratio(static_cast<double>(events), n),
          "count");
    // The counting listener takes one delivery per event; leave it out.
    o.set("core.deliveries_per_event",
          ratio(static_cast<double>(deliveries - listener.events),
                static_cast<double>(events)),
          "count");
    o.set("core.dispatch_ns_per_event",
          ratio(dispatchNs, static_cast<double>(events)), "ns");
    o.set("noise.injections_per_run",
          ratio(static_cast<double>(injections), n), "count");
    o.set("coverage.snapshot_bytes",
          ratio(static_cast<double>(coverageBytes), n), "bytes");
    if (!resetUs.empty()) {
      o.set("experiment.stack_reset_us", median(resetUs), "us");
    }
    if (!accumulateNs.empty()) {
      o.set("experiment.accumulate_ns", median(accumulateNs), "ns");
    }
  }
};

/// A RunSpec whose runs go through the traced run's wrapping policy and
/// carry dispatch timing; untraced it is `spec` unchanged.
experiment::RunSpec tracedSpec(experiment::RunSpec spec, RunLayers* layers) {
  if (layers == nullptr) return spec;
  PolicyCounts* counts = &layers->policy;
  const std::string policy = spec.tool.policy;
  spec.policyFactory = [counts, policy] {
    return std::make_unique<CountingPolicy>(experiment::makePolicy(policy),
                                            *counts);
  };
  rt::RunOptions opts = suite::makeProgram(spec.programName)->defaultRunOptions();
  opts.dispatchTiming = true;
  spec.runOptions = opts;
  return spec;
}

/// One run through executeRun on a reused stack; traced, it is timed,
/// spanned, and the stack's reset is timed separately.
experiment::RunObservation tracedRun(const experiment::RunSpec& spec,
                                     std::size_t i,
                                     experiment::ToolStack& stack,
                                     const std::string& family,
                                     RunLayers* layers, Tracer& tracer,
                                     int parent) {
  if (layers == nullptr) return experiment::executeRun(spec, i, stack);
  SpanScope span(tracer, "run", parent);
  const std::int64_t t0 = nowNs();
  experiment::RunObservation obs = experiment::executeRun(spec, i, stack);
  const std::int64_t t1 = nowNs();
  stack.reset();
  layers->resetUs.push_back(static_cast<double>(nowNs() - t1) / 1e3);
  layers->addRun(family, static_cast<double>(t1 - t0) / 1e9, obs);
  return obs;
}

void accumulateTimed(experiment::ExperimentResult& r,
                     const experiment::RunObservation& obs,
                     RunLayers* layers) {
  if (layers == nullptr) {
    experiment::accumulate(r, obs);
    return;
  }
  const std::int64_t t0 = nowNs();
  experiment::accumulate(r, obs);
  layers->accumulateNs.push_back(static_cast<double>(nowNs() - t0));
}

// --- experiment_catalog ---------------------------------------------------------

struct CatalogEntry {
  std::string program;
  std::string family;
  bool control = false;
  std::size_t runs = 0;  ///< campaign runs per block
};

/// Programs of the three families, minus wall_stall (it really sleeps when
/// the bug manifests).  The evloop quota scheduler pair costs ~9 ms per
/// run, so it gets a smaller per-block budget instead of being dropped.
std::vector<CatalogEntry> catalog(bool smoke) {
  std::vector<CatalogEntry> out;
  std::set<std::string> seen;
  for (const char* family : {"threads", "evloop", "atomics"}) {
    for (const std::string& name : suite::allProgramNames(family)) {
      if (name == "wall_stall" || !seen.insert(name).second) continue;
      CatalogEntry e;
      e.program = name;
      e.family = familyOf(name);
      e.control = suite::makeProgram(name)->isControl();
      const bool slow = name.rfind("evloop_quota_sessions", 0) == 0;
      e.runs = smoke || slow ? 1 : 6;
      out.push_back(e);
    }
  }
  return out;
}

/// Fixed hunt seed bases: time-to-first-bug must not depend on --seed, so
/// that runs_to_first_bug repeats exactly between runs.
const std::vector<std::uint64_t> kHuntBases = {0, 100000, 200000};
constexpr std::size_t kHuntCap = 5000;

/// Hunted buggy programs exclude shared_flag_spin: its livelock needs the
/// spinner never to be preempted, which no random-family policy does (no
/// manifestation in 3,000 seeds); it stays in the campaign.
bool hunted(const CatalogEntry& e) {
  return !e.control && e.program != "shared_flag_spin";
}

struct Hunt {
  std::string program;
  std::uint64_t base = 0;
  std::size_t index = 0;  ///< manifesting run (seed = base + index)
  bool found = false;
};

}  // namespace

Outcome runExperimentCatalog(const Config& cfg, Tracer& tracer) {
  Outcome out;
  if (cfg.trace) zeroLayers(out);
  SpanScope root(tracer, "experiment_catalog", -1);
  const experiment::ToolConfig tool = catalogTools();
  experiment::validateToolConfig(tool);
  const std::vector<CatalogEntry> entries = catalog(cfg.smoke);
  const std::vector<std::uint64_t> huntBases =
      cfg.smoke ? std::vector<std::uint64_t>{kHuntBases.front()} : kHuntBases;

  std::unique_ptr<RunLayers> layers;
  if (cfg.trace) layers = std::make_unique<RunLayers>();
  Listener* extra = layers ? &layers->listener : nullptr;

  // One reused stack per program, as runExperiment does.
  std::vector<experiment::RunSpec> specs;
  std::vector<experiment::ToolStack> stacks;
  std::vector<experiment::ExperimentResult> results(entries.size());
  const std::uint64_t campaignBase = cfg.seed * 1000;
  for (const CatalogEntry& e : entries) {
    experiment::RunSpec spec;
    spec.programName = e.program;
    spec.tool = tool;
    spec.seedBase = campaignBase;
    specs.push_back(tracedSpec(spec, layers.get()));
    stacks.push_back(buildStack(tool, extra));
  }

  std::vector<CampaignRow> firstBlock;
  std::vector<Hunt> hunts;
  std::size_t controlViolations = 0;
  bool first = true;
  std::vector<Hunt> firstHunts;
  std::uint64_t huntRunsFirst = 0;

  auto block = [&](std::size_t, ItemTimes* times) {
    {
      SpanScope phase(tracer, "campaign", root.id());
      for (std::size_t k = 0; k < entries.size(); ++k) {
        SpanScope prog(tracer, entries[k].program, phase.id());
        timeItem(times, "campaign " + entries[k].program, false, [&] {
          for (std::size_t i = 0; i < entries[k].runs; ++i) {
            experiment::RunObservation obs =
                tracedRun(specs[k], i, stacks[k], entries[k].family,
                          layers.get(), tracer, prog.id());
            if (obs.supervised()) ++out.failed;
            if (entries[k].control && obs.manifested) ++controlViolations;
            accumulateTimed(results[k], obs, layers.get());
            if (first) {
              firstBlock.push_back(
                  {entries[k].program, entries[k].control, obs});
            }
          }
          return entries[k].runs;
        });
      }
    }
    SpanScope phase(tracer, "hunt", root.id());
    hunts.clear();
    std::uint64_t huntRuns = 0;
    for (std::size_t k = 0; k < entries.size(); ++k) {
      if (!hunted(entries[k])) continue;
      for (std::uint64_t base : huntBases) {
        SpanScope prog(tracer, entries[k].program, phase.id());
        experiment::RunSpec spec = specs[k];
        spec.seedBase = base;
        Hunt h{entries[k].program, base, 0, false};
        timeItem(times,
                 "hunt " + entries[k].program + " " + std::to_string(base),
                 true, [&] {
                   std::size_t i = 0;
                   for (; i < kHuntCap && !h.found; ++i) {
                     experiment::RunObservation obs =
                         tracedRun(spec, i, stacks[k], entries[k].family,
                                   layers.get(), tracer, prog.id());
                     if (obs.supervised()) ++out.failed;
                     if (obs.manifested) {
                       h.index = i;
                       h.found = true;
                     }
                   }
                   huntRuns += i;
                   return i;
                 });
        if (!h.found) ++out.failed;
        hunts.push_back(h);
      }
    }
    if (first) {
      firstHunts = hunts;
      huntRunsFirst = huntRuns;
    } else if (huntRuns != huntRunsFirst) {
      out.require("hunt run counts differ between blocks of one process");
    }
    first = false;
  };

  const ItemTimes times =
      timedBlocks(cfg, tracer, root.id(), "experiment_catalog", 3.4, block);
  out.attempted = times.totalRuns();
  out.set("setup_s", times.setupSeconds, "s");

  std::uint64_t runsToFirstBug = 0;
  for (const Hunt& h : firstHunts) runsToFirstBug += h.index + 1;
  out.set("runs_per_s", times.runsPerSecond(), "runs/s");
  out.set("time_to_result_s", times.resultSeconds(), "s");
  out.set("runs_to_result", static_cast<double>(runsToFirstBug), "runs");

  // Per-layer figures come from the timed phase only; the checks below
  // reuse the counting probes.
  if (layers) layers->report(out);

  // --- output checks (untimed) ---
  SpanScope checks(tracer, "checks", root.id());
  out.require(checkControlsQuiet(firstBlock));
  if (controlViolations != 0) {
    out.require(std::to_string(controlViolations) +
                " control run(s) manifested during the campaign");
  }
  for (const Hunt& h : firstHunts) {
    if (!h.found) {
      out.require(h.program + ": no manifestation from seed base " +
                  std::to_string(h.base) + " within " +
                  std::to_string(kHuntCap) + " runs");
      continue;
    }
    // The witness is the hunted run's own decision record: re-execute the
    // manifesting seed on the campaign's stack with a recording policy.
    std::size_t k = 0;
    while (entries[k].program != h.program) ++k;
    experiment::RunSpec spec;
    spec.programName = h.program;
    spec.tool = tool;
    spec.seedBase = h.base;
    auto recorder = std::make_shared<rt::RecordingPolicy>(
        experiment::makePolicy(tool.policy));
    spec.policyFactory = [recorder] {
      return std::make_unique<rt::PolicyRef>(*recorder);
    };
    const experiment::RunObservation obs =
        experiment::executeRun(spec, h.index, stacks[k]);
    if (!obs.manifested) {
      out.require(h.program + ": hunted seed does not manifest again");
      continue;
    }
    Witness w;
    w.program = h.program;
    w.seed = h.base + h.index;
    w.noise = tool.noiseName;
    w.strength = tool.noiseOpts.strength;
    w.schedule = recorder->schedule();
    out.require(checkWitness(w));
  }

  // Counting listener and wrapping policy against the runtime's own counts,
  // and a fresh tool stack against the reused one, on the first run of
  // every program in the campaign.
  std::uint64_t listenerEvents = 0;
  std::uint64_t obsEvents = 0;
  std::size_t exactDecisionRuns = 0;
  experiment::ToolConfig quiet = tool;
  quiet.noiseName = "none";
  std::size_t row = 0;
  for (std::size_t k = 0; k < entries.size(); ++k) {
    const CampaignRow& r = firstBlock[row];
    row += entries[k].runs;
    experiment::RunSpec plain;
    plain.programName = entries[k].program;
    plain.tool = tool;
    plain.seedBase = campaignBase;

    CountingListener counter;
    experiment::ToolStack fresh = buildStack(tool, extra);
    const experiment::RunObservation again =
        experiment::executeRun(specs[k], 0, fresh);
    out.require(checkSameObservation(r.obs, again));

    experiment::ToolStack counted = buildStack(tool, &counter);
    const experiment::RunObservation obs =
        experiment::executeRun(plain, 0, counted);
    listenerEvents += counter.events;
    obsEvents += obs.events;

    // The runtime's decision count: direct runs with the wrapping policy,
    // under the campaign's noise and without noise (no injected sleeps, so
    // the decisions must equal the steps exactly unless the program sleeps).
    const experiment::ToolConfig* configs[] = {&tool, &quiet};
    for (const experiment::ToolConfig* t : configs) {
      const DirectCounts d = directRun(plain.programName, *t, campaignBase);
      out.require(checkDecisions(plain.programName + " noise " + t->noiseName,
                                 d.decisions, d.steps, d.sleepTicks));
      if (d.sleepTicks == 0) ++exactDecisionRuns;
      if (t == &tool) {
        out.require(checkEqualCount(plain.programName + " direct-run events",
                                    d.events, obs.events));
      }
    }
  }
  std::fprintf(stderr,
               "perfbench: decision check exact (no sleep) on %zu of %zu "
               "direct runs\n",
               exactDecisionRuns, 2 * entries.size());
  out.require(checkEqualCount("listener events", listenerEvents, obsEvents));

  if (layers) {
    // Tool attribution: RunOptions::dispatchTiming on direct runs of every
    // program, read per listener from RunResult::dispatch.
    std::map<std::string, double> toolNs;
    double events = 0.0;
    for (const CatalogEntry& e : entries) {
      auto program = suite::makeProgram(e.program);
      experiment::ToolStack stack = buildStack(tool, nullptr);
      const std::map<std::string, std::string> names = {
          {std::string(stack.detectors().front()->listenerName()), "race"},
          {std::string(stack.lockGraph()->listenerName()), "deadlock"},
          {std::string(stack.noiseMaker()->listenerName()), "noise"},
          {std::string(stack.coverageModel()->listenerName()), "coverage"},
      };
      for (std::uint64_t i = 0; i < (cfg.smoke ? 1u : 4u); ++i) {
        program->reset();
        auto runtime = rt::makeRuntime(RuntimeMode::Controlled,
                                       experiment::makePolicy(tool.policy));
        stack.reset();
        stack.attach(*runtime);
        rt::RunOptions opts = program->defaultRunOptions();
        opts.seed = campaignBase + i;
        opts.programName = e.program;
        opts.dispatchTiming = true;
        const rt::RunResult rr =
            runtime->run([&](rt::Runtime& x) { program->body(x); }, opts);
        events += static_cast<double>(rr.dispatch.events);
        for (const ListenerDispatchStats& l : rr.dispatch.listeners) {
          auto it = names.find(l.name);
          if (it != names.end()) toolNs[it->second] += static_cast<double>(l.ns);
        }
      }
    }
    for (const char* t : {"race", "deadlock", "noise", "coverage"}) {
      out.set(std::string(t) + ".ns_per_event", ratio(toolNs[t], events), "ns");
    }
  }
  return out;
}

// --- explore_exhaustive -----------------------------------------------------------

namespace {

/// Control programs whose sleep-set spaces end in well under a second.
/// mp_reorder_fixed contributes weak-memory StorePick nodes.
const std::vector<std::string> kSpaces = {
    "account_sync", "bounded_buffer_ok", "philosophers_ordered", "iriw_fixed",
    "mp_reorder_fixed"};
/// Spaces small enough to enumerate without sleep sets in every run
/// (4,052 and 34,325 schedules; the other three do not end within 100 s).
const std::set<std::string> kFullyEnumerable = {"account_sync",
                                                "mp_reorder_fixed"};
constexpr std::uint64_t kExploreBudget = 1'000'000;

/// Explores `program` through Explorer::explore directly, collecting the
/// distinct outcomes of the non-pruned schedules.
SpaceResult exploreWithOutcomes(const std::string& program, bool sleepSets) {
  SpaceResult s;
  s.program = program;
  auto p = suite::makeProgram(program);
  explore::ExploreOptions eo;
  eo.sleepSets = sleepSets;
  eo.maxSchedules = kExploreBudget;
  eo.stopAtFirstBug = false;
  explore::Explorer ex(eo);
  s.result = ex.explore(
      [&](rt::Runtime& rr) { p->body(rr); },
      [&](const rt::RunResult& r) {
        s.outcomes.insert(p->outcome() + "|" + std::string(to_string(r.status)));
        return p->evaluate(r) == suite::Verdict::BugManifested;
      },
      [&] { p->reset(); });
  return s;
}

}  // namespace

Outcome runExploreExhaustive(const Config& cfg, Tracer& tracer) {
  Outcome out;
  if (cfg.trace) zeroLayers(out);
  SpanScope root(tracer, "explore_exhaustive", -1);
  // --seed only rotates the order in which the spaces are explored: the
  // spaces themselves are fixed, so schedules_to_exhaust repeats exactly.
  std::vector<std::string> programs = kSpaces;
  if (cfg.smoke) programs = {"account_sync", "mp_reorder_fixed"};
  std::rotate(programs.begin(),
              programs.begin() +
                  static_cast<std::ptrdiff_t>(cfg.seed % programs.size()),
              programs.end());

  std::unique_ptr<CountingListener> listener;
  experiment::ToolStack stack;
  if (cfg.trace) {
    // exploreSpec's own stack for a default ToolConfig, plus the counter.
    listener = std::make_unique<CountingListener>();
    stack = buildStack(experiment::ToolConfig{}, listener.get());
  }
  std::map<std::string, explore::ExploreResult> reference;
  std::map<std::string, std::vector<double>> familyUs;
  std::uint64_t executions = 0;
  std::uint64_t steps = 0;
  double exploreSeconds = 0.0;

  auto block = [&](std::size_t, ItemTimes* times) {
    SpanScope phase(tracer, "explore", root.id());
    for (const std::string& p : programs) {
      SpanScope prog(tracer, p, phase.id());
      experiment::RunSpec spec;
      spec.programName = p;
      explore::ExploreOptions eo;
      eo.sleepSets = true;
      eo.maxSchedules = kExploreBudget;
      eo.stopAtFirstBug = false;
      if (cfg.trace) eo.tools = &stack;
      explore::ExploreResult r;
      const std::int64_t t0 = nowNs();
      timeItem(times, "explore " + p, true, [&] {
        r = explore::exploreSpec(spec, eo);
        return r.schedules + r.prunedRuns;
      });
      const double sec = static_cast<double>(nowNs() - t0) / 1e9;
      const std::uint64_t n = r.schedules + r.prunedRuns;
      if (!r.exhausted || r.bugFound) ++out.failed;
      auto [it, fresh] = reference.emplace(p, r);
      if (!fresh && (it->second.schedules != r.schedules ||
                     it->second.prunedRuns != r.prunedRuns)) {
        out.require(p + ": exploration counts differ between blocks");
      }
      if (cfg.trace) {
        familyUs[familyOf(p)].push_back(sec * 1e6 / static_cast<double>(n));
        executions += n;
        steps += r.totalSteps;
        exploreSeconds += sec;
      }
    }
  };

  const ItemTimes times =
      timedBlocks(cfg, tracer, root.id(), "explore_exhaustive", 2.6, block);
  out.attempted = times.totalRuns();
  out.set("setup_s", times.setupSeconds, "s");

  std::uint64_t schedules = 0;
  std::uint64_t pruned = 0;
  for (const auto& [p, r] : reference) {
    schedules += r.schedules;
    pruned += r.prunedRuns;
  }
  out.set("runs_per_s", times.runsPerSecond(), "runs/s");
  out.set("time_to_result_s", times.resultSeconds(), "s");
  out.set("runs_to_result", static_cast<double>(schedules), "runs");

  SpanScope checks(tracer, "checks", root.id());
  for (const std::string& p : programs) {
    const SpaceResult sleep = exploreWithOutcomes(p, true);
    out.require(checkExhaustedClean(sleep));
    out.require(checkEqualCount(p + " schedules (exploreSpec vs explore)",
                                sleep.result.schedules,
                                reference[p].schedules));
    if (kFullyEnumerable.count(p) != 0 &&
        (!cfg.smoke || p == "account_sync")) {
      out.require(checkSleepMatchesFull(sleep, exploreWithOutcomes(p, false)));
    }
  }

  if (cfg.trace) {
    const double n = static_cast<double>(executions);
    for (const auto& [family, us] : familyUs) {
      out.set("rt.run_us." + family, median(us), "us");
    }
    out.set("rt.ns_per_decision",
            ratio(exploreSeconds * 1e9, static_cast<double>(steps)), "ns");
    out.set("rt.decisions_per_run", ratio(static_cast<double>(steps), n),
            "count");
    out.set("rt.spawns_per_run",
            ratio(static_cast<double>(listener->spawns), n), "count");
    out.set("core.events_per_run",
            ratio(static_cast<double>(listener->events), n), "count");
    out.set("explore.useful_ratio",
            ratio(static_cast<double>(schedules),
                  static_cast<double>(schedules + pruned)),
            "ratio");
    out.set("explore.us_per_execution", ratio(exploreSeconds * 1e6, n), "us");
    out.set("explore.steps_per_execution",
            ratio(static_cast<double>(steps), n), "count");
  }
  return out;
}

// --- fleet_campaign -----------------------------------------------------------------

namespace {

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void writeFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

struct FleetRun {
  farm::ExperimentCampaign ec;
  fleet::FleetCounters counters;
  std::string journal;  ///< journal bytes after the campaign
  /// Workers that had not connected when the campaign ended: a starved
  /// thread can miss a campaign the other worker finishes alone.
  std::size_t lateWorkers = 0;
};

/// One campaign: an in-process coordinator on a unix socket and two
/// in-process workers, each pinned to its own CPU before runWorker.  Once
/// the campaign has ended, a worker still dialling stops (its stop latch)
/// and is counted as late, not as an error.
FleetRun fleetCampaign(const Config& cfg, const experiment::ExperimentSpec& spec,
                       const std::string& journal, bool resume,
                       const std::vector<int>& workerCpus) {
  const std::string sock = cfg.tmpDir + "/fleet.sock";
  fs::remove(sock);
  fleet::FleetOptions fo;
  fo.listen = "unix:" + sock;
  fo.farm.journalPath = journal;
  fo.farm.resume = resume;
  fo.farm.scrubTiming = true;

  FleetRun run;
  std::mutex errMu;
  std::string workerError;
  std::atomic<bool> over{false};
  std::vector<std::thread> workers;
  struct Joiner {
    std::vector<std::thread>& ts;
    std::atomic<bool>& over;
    ~Joiner() {
      over = true;
      for (std::thread& t : ts) t.join();
    }
  } joiner{workers, over};
  fo.onListen = [&](const std::string&) {
    for (int cpu : workerCpus) {
      workers.emplace_back([&, cpu] {
        try {
          if (cpu >= 0) pinCurrentThread(cpu);
          fleet::WorkerOptions wo;
          wo.connect = fo.listen;
          wo.stopFlag = &over;
          fleet::runWorker(wo);
        } catch (const std::exception& e) {
          std::lock_guard<std::mutex> lk(errMu);
          if (over) {
            ++run.lateWorkers;
          } else {
            workerError = e.what();
          }
        }
      });
    }
  };
  run.ec = fleet::runExperimentFleet(spec, fo);
  run.counters = fleet::lastFleetCounters();
  over = true;
  for (std::thread& t : workers) t.join();
  workers.clear();
  fs::remove(sock);
  if (!workerError.empty()) {
    throw std::runtime_error("fleet worker: " + workerError);
  }
  return run;
}

/// Lease reassignments, duplicates, supervised runs or an abort are failed
/// operations of the campaign.
std::uint64_t fleetFailures(const FleetRun& r) {
  std::uint64_t failed = r.counters.leasesReassigned +
                         r.counters.duplicatesDropped +
                         (r.ec.campaign.abortDiagnostic.empty() ? 0 : 1);
  for (const auto& obs : r.ec.campaign.records) {
    if (obs.supervised()) ++failed;
  }
  return failed;
}

/// Byte offset halfway into journal record `k` (0-based), i.e. a cut that
/// tears that record.
std::size_t midRecordOffset(const std::string& journal, std::size_t k) {
  std::size_t pos = 0;
  for (int header = 0; header < 2; ++header) pos = journal.find('\n', pos) + 1;
  for (std::size_t i = 0; i < k; ++i) pos = journal.find('\n', pos) + 1;
  const std::size_t end = journal.find('\n', pos);
  return pos + (end - pos) / 2;
}

}  // namespace

Outcome runFleetCampaign(const Config& cfg, Tracer& tracer) {
  Outcome out;
  if (cfg.trace) zeroLayers(out);
  SpanScope root(tracer, "fleet_campaign", -1);

  experiment::ExperimentSpec spec;
  spec.programName = "bounded_buffer_bug";
  spec.tool.policy = "random";
  spec.tool.noiseName = "mixed";
  spec.tool.noiseOpts.strength = 0.3;
  spec.seedBase = cfg.seed * 100000;
  spec.runs = cfg.smoke ? 64 : 1200;
  experiment::validateToolConfig(spec.tool);
  const std::uint64_t n = spec.runs;
  const std::size_t cutRecord = n / 2;

  const std::string journal = cfg.tmpDir + "/fleet.journal";

  CountingInjector injector;
  std::unique_ptr<core::FaultScope> faultScope;
  if (cfg.trace) faultScope = std::make_unique<core::FaultScope>(&injector);

  FleetRun fresh;
  FleetRun resumed;
  std::uint64_t wireBytes = 0;
  std::uint64_t campaignRuns = 0;
  std::vector<double> readRate;
  std::size_t lateWorkers = 0;

  auto block = [&](std::size_t b, ItemTimes* times) {
    // The coordinator runs on the block's CPU, each worker on the next two.
    const std::vector<int> workerCpus = {blockCpu(cfg, b + 1),
                                         blockCpu(cfg, b + 2)};
    fs::remove(journal);
    {
      SpanScope c(tracer, "campaign", root.id());
      timeItem(times, "campaign", true, [&] {
        fresh = fleetCampaign(cfg, spec, journal, false, workerCpus);
        return fresh.counters.recordsStreamed;
      });
    }
    fresh.journal = readFile(journal);
    out.failed += fleetFailures(fresh);
    writeFile(journal,
              fresh.journal.substr(0, midRecordOffset(fresh.journal, cutRecord)));
    if (cfg.trace) {
      const std::int64_t t0 = nowNs();
      const farm::JournalData jd = farm::loadJournal(journal);
      readRate.push_back(static_cast<double>(jd.records.size()) /
                         (static_cast<double>(nowNs() - t0) / 1e9));
    }
    {
      SpanScope c(tracer, "resume", root.id());
      timeItem(times, "resume", false, [&] {
        resumed = fleetCampaign(cfg, spec, journal, true, workerCpus);
        return resumed.counters.recordsStreamed;
      });
    }
    resumed.journal = readFile(journal);
    out.failed += fleetFailures(resumed);
    lateWorkers += fresh.lateWorkers + resumed.lateWorkers;
    const std::uint64_t runs =
        fresh.counters.recordsStreamed + resumed.counters.recordsStreamed;
    wireBytes += fresh.counters.bytesReceived + fresh.counters.bytesSent +
                 resumed.counters.bytesReceived + resumed.counters.bytesSent;
    campaignRuns += runs;
  };

  const ItemTimes times =
      timedBlocks(cfg, tracer, root.id(), "fleet_campaign", 4.0, block);
  faultScope.reset();
  if (lateWorkers != 0) {
    std::fprintf(stderr,
                 "perfbench: fleet_campaign: %zu worker(s) connected only "
                 "after their campaign had ended\n",
                 lateWorkers);
  }
  out.attempted = times.totalRuns();
  out.set("setup_s", times.setupSeconds, "s");

  out.set("runs_per_s", times.runsPerSecond(), "runs/s");
  out.set("time_to_result_s", times.resultSeconds(), "s");
  out.set("runs_to_result",
          static_cast<double>(fresh.counters.recordsStreamed +
                              resumed.counters.recordsStreamed),
          "runs");

  // --- output checks against a serial in-process fold (no farm, no socket)
  SpanScope checks(tracer, "checks", root.id());
  experiment::ToolStack stack = experiment::makeToolStack(spec.tool);
  std::vector<experiment::RunObservation> reference;
  for (std::uint64_t i = 0; i < n; ++i) {
    experiment::RunObservation obs = experiment::executeRun(spec, i, stack);
    farm::scrubTimingFields(obs);
    reference.push_back(obs);
  }
  const std::string config = spec.programName + "|" + spec.tool.label() +
                             "|" + std::to_string(n) + "|" +
                             std::to_string(spec.seedBase);
  const std::string refJournal = referenceJournal(config, n, reference);
  const std::string refReport =
      foldReport(spec.programName, spec.tool.label(), reference);
  out.require(checkIndicesOnce(fresh.ec.campaign.records, n));
  out.require(checkBytesEqual("fleet report", renderReport(fresh.ec.result),
                              refReport));
  out.require(checkBytesEqual("fleet journal", fresh.journal, refJournal));
  out.require(checkIndicesOnce(resumed.ec.campaign.records, n));
  out.require(checkBytesEqual("resumed report", renderReport(resumed.ec.result),
                              refReport));
  out.require(checkBytesEqual("resumed journal", resumed.journal, refJournal));
  out.require(checkEqualCount("runs re-executed on resume",
                              resumed.counters.recordsStreamed,
                              n - cutRecord));
  out.require(checkEqualCount("records taken from the journal",
                              resumed.ec.campaign.resumed, cutRecord));
  fs::remove(journal);

  if (cfg.trace) {
    // The campaign's runs once more, serially through the traced probes,
    // for the layers the workers execute (rt, core, experiment).
    RunLayers layers;
    const experiment::RunSpec tspec = tracedSpec(spec, &layers);
    experiment::ToolStack tstack = buildStack(spec.tool, &layers.listener);
    experiment::ExperimentResult fold;
    SpanScope serial(tracer, "serial_fold", checks.id());
    for (std::uint64_t i = 0; i < n; ++i) {
      accumulateTimed(fold,
                      tracedRun(tspec, i, tstack, familyOf(spec.programName),
                                &layers, tracer, serial.id()),
                      &layers);
    }
    layers.report(out);
    const double runs = static_cast<double>(campaignRuns);
    const auto sites = injector.sites();
    std::uint64_t netOps = 0;
    for (const auto& [site, c] : sites) {
      if (site.rfind("fleet.", 0) == 0) netOps += c.ops;
    }
    out.set("fleet.wire_bytes_per_run",
            ratio(static_cast<double>(wireBytes), runs), "bytes");
    out.set("fleet.net_ops_per_run", ratio(static_cast<double>(netOps), runs),
            "count");
    // Worker timelines: a send follows a run (busy), a receive follows a
    // wait for the next lease (idle).
    std::vector<double> gaps;
    std::vector<double> busyShares;
    for (const CountingInjector::Timeline& tl : injector.workerTimelines()) {
      std::int64_t busy = 0;
      std::int64_t lastSend = -1;
      for (std::size_t i = 1; i < tl.size(); ++i) {
        if (!tl[i].second) continue;
        busy += tl[i].first - tl[i - 1].first;
        if (lastSend >= 0) {
          gaps.push_back(static_cast<double>(tl[i].first - lastSend) / 1e3);
        }
        lastSend = tl[i].first;
      }
      if (tl.size() > 1) {
        busyShares.push_back(static_cast<double>(busy) /
                             static_cast<double>(tl.back().first -
                                                 tl.front().first));
      }
    }
    out.set("fleet.record_gap_us", median(gaps), "us");
    out.set("fleet.worker_busy_share", median(busyShares), "ratio");
    const double perK = 1000.0 / static_cast<double>(campaignRuns);
    out.set("farm.journal_writes_per_1k_runs",
            static_cast<double>(injector.ops("farm.journal.append")) * perK,
            "count");
    out.set("farm.fsyncs_per_1k_runs",
            static_cast<double>(injector.ops("farm.journal.fsync") +
                                injector.ops("core.atomic_file.fsync")) *
                perK,
            "count");
    out.set("farm.journal_bytes_per_run",
            static_cast<double>(fresh.journal.size()) / static_cast<double>(n),
            "bytes");
    out.set("farm.journal_read_records_per_s", median(readRate), "1/s");

    // Codec and fold: timers around the public calls over the campaign's
    // own records, repeated until each loop has run for ~20 ms.
    const std::vector<experiment::RunObservation>& recs =
        fresh.ec.campaign.records;
    std::vector<std::string> payloads;
    std::vector<std::string> frames;
    for (const auto& o : recs) {
      payloads.push_back(farm::encodePipeRecord(o));
      frames.push_back(fleet::encodeRecord(1, o));
    }
    auto perCall = [&](auto&& body) {
      std::uint64_t calls = 0;
      const std::int64_t t0 = nowNs();
      do {
        for (std::size_t i = 0; i < recs.size(); ++i) body(i);
        calls += recs.size();
      } while (nowNs() - t0 < 20'000'000);
      return static_cast<double>(nowNs() - t0) / static_cast<double>(calls);
    };
    std::size_t sink = 0;
    out.set("farm.record_encode_ns", perCall([&](std::size_t i) {
              sink += farm::encodePipeRecord(recs[i]).size();
            }),
            "ns");
    out.set("farm.record_decode_ns", perCall([&](std::size_t i) {
              experiment::RunObservation o;
              sink += farm::decodePipeRecord(payloads[i], o) ? 1 : 0;
            }),
            "ns");
    experiment::ExperimentResult codecFold;
    const double foldNs = perCall([&](std::size_t i) {
      std::uint64_t lease = 0;
      experiment::RunObservation o;
      std::string err;
      if (fleet::decodeRecord(frames[i], lease, o, err)) {
        experiment::accumulate(codecFold, o);
      }
    });
    out.set("fleet.fold_records_per_s", 1e9 / foldNs, "1/s");
    if (sink == 0) out.require("codec loop produced nothing");
  }
  return out;
}

}  // namespace perfbench

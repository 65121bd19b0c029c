#include <cstdio>

#include "bench.hpp"
#include "farm/journal.hpp"
#include "farm/record_io.hpp"
#include "triage/probe.hpp"

namespace perfbench {

std::string checkControlsQuiet(const std::vector<CampaignRow>& rows) {
  for (const CampaignRow& r : rows) {
    if (r.control && r.obs.manifested) {
      return "control program " + r.program + " manifested at seed " +
             std::to_string(r.obs.seed);
    }
  }
  return "";
}

std::string checkEqualCount(const std::string& what, std::uint64_t counted,
                            std::uint64_t reported) {
  if (counted == reported) return "";
  return what + ": counted " + std::to_string(counted) + ", reported " +
         std::to_string(reported);
}

std::string checkDecisions(const std::string& what, std::uint64_t decisions,
                           std::uint64_t steps, std::uint64_t sleepTicks) {
  if (decisions <= steps && steps - decisions <= sleepTicks) return "";
  return what + ": " + std::to_string(decisions) + " decisions for " +
         std::to_string(steps) + " steps with " + std::to_string(sleepTicks) +
         " sleep ticks";
}

std::string checkSameObservation(const experiment::RunObservation& a,
                                 const experiment::RunObservation& b) {
  experiment::RunObservation x = a;
  experiment::RunObservation y = b;
  farm::scrubTimingFields(x);
  farm::scrubTimingFields(y);
  if (farm::encodePipeRecord(x) == farm::encodePipeRecord(y)) return "";
  return "run " + std::to_string(a.runIndex) + " (seed " +
         std::to_string(a.seed) +
         ") observed differently with a freshly built tool stack";
}

std::string checkWitness(const Witness& w) {
  triage::ReplayToolConfig cfg;
  cfg.noiseName = w.noise;
  cfg.strength = w.strength;
  cfg.seed = w.seed;
  const std::string where = w.program + " seed " + std::to_string(w.seed);
  const triage::ProbeResult rec = triage::recordRun(w.program, "random", cfg);
  if (!rec.signature.failure()) return where + ": the seed does not manifest";
  if (rec.recorded.decisions != w.schedule.decisions) {
    return where + ": the witness is not the schedule its seed records";
  }
  const triage::ProbeResult rep = triage::probeExact(w.program, w.schedule, cfg);
  if (!rep.exact) return where + ": witness replay diverged (not exact)";
  if (rep.signature.fingerprint() != rec.signature.fingerprint()) {
    return where + ": replay fingerprint " + rep.signature.fingerprint() +
           " differs from the hunted " + rec.signature.fingerprint();
  }
  return "";
}

std::string checkExhaustedClean(const SpaceResult& s) {
  const explore::ExploreResult& r = s.result;
  if (!r.exhausted) {
    return s.program + ": schedule space not exhausted (budget or divergence)";
  }
  if (r.bugFound || r.deadlocks != 0 || r.oracleFailures != 0) {
    return s.program + ": control program reported a bug during exploration";
  }
  return "";
}

std::string checkSleepMatchesFull(const SpaceResult& sleep,
                                  const SpaceResult& full) {
  const std::string p = sleep.program;
  if (!sleep.result.exhausted || !full.result.exhausted) {
    return p + ": a compared exploration was not exhausted";
  }
  if (sleep.result.bugFound != full.result.bugFound ||
      sleep.result.deadlocks != full.result.deadlocks ||
      sleep.result.oracleFailures != full.result.oracleFailures) {
    return p + ": sleep sets changed the verdict";
  }
  if (sleep.outcomes != full.outcomes) {
    return p + ": sleep sets changed the set of outcomes (" +
           std::to_string(sleep.outcomes.size()) + " vs " +
           std::to_string(full.outcomes.size()) + ")";
  }
  if (sleep.result.schedules > full.result.schedules) {
    return p + ": sleep sets used more schedules than full enumeration";
  }
  return "";
}

std::string checkIndicesOnce(
    const std::vector<experiment::RunObservation>& records, std::uint64_t n) {
  if (records.size() != n) {
    return "folded " + std::to_string(records.size()) + " records for " +
           std::to_string(n) + " runs";
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    if (records[i].runIndex != i) {
      return "run index " + std::to_string(i) + " not folded exactly once";
    }
  }
  return "";
}

std::string checkBytesEqual(const std::string& what, const std::string& got,
                            const std::string& want) {
  if (got == want) return "";
  std::size_t i = 0;
  while (i < got.size() && i < want.size() && got[i] == want[i]) ++i;
  return what + " differs from the serial reference at byte " +
         std::to_string(i) + " (" + std::to_string(got.size()) + " vs " +
         std::to_string(want.size()) + " bytes)";
}

std::string referenceJournal(
    const std::string& config, std::uint64_t total,
    const std::vector<experiment::RunObservation>& records) {
  auto hex16 = [](std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return std::string(buf);
  };
  std::string text = "MTTJOURNAL 1\nconfig " +
                     hex16(farm::journalDigest(config)) + " " +
                     std::to_string(total) + "\n";
  for (const experiment::RunObservation& obs : records) {
    const std::string payload = farm::encodePipeRecord(obs);
    text += "R " + hex16(farm::journalDigest(payload)) + " " + payload + "\n";
  }
  return text;
}

std::string renderReport(const experiment::ExperimentResult& r) {
  experiment::ReportOptions ro;
  ro.timing = false;
  return experiment::findRateReport("fleet campaign", {r}, ro);
}

std::string foldReport(const std::string& program, const std::string& label,
                       const std::vector<experiment::RunObservation>& records) {
  experiment::ExperimentResult r;
  r.programName = program;
  r.toolLabel = label;
  r.runs = records.size();
  for (const experiment::RunObservation& obs : records) {
    experiment::accumulate(r, obs);
  }
  return renderReport(r);
}

// --- self-test --------------------------------------------------------------

namespace {

struct SelfTest {
  int failures = 0;
  void expectPass(const std::string& name, const std::string& err) {
    report(name, err.empty(), err);
  }
  void expectFail(const std::string& name, const std::string& err) {
    report(name, !err.empty(), "the check accepted a wrong input");
    if (!err.empty()) std::fprintf(stderr, "    rejected: %s\n", err.c_str());
  }
  void report(const std::string& name, bool ok, const std::string& why) {
    std::fprintf(stderr, "self-test %-52s %s\n", name.c_str(),
                 ok ? "ok" : "FAILED");
    if (!ok) {
      std::fprintf(stderr, "    %s\n", why.c_str());
      ++failures;
    }
  }
};

experiment::RunSpec fleetLikeSpec() {
  experiment::RunSpec spec;
  spec.programName = "bounded_buffer_bug";
  spec.seedBase = 11;
  spec.tool.policy = "random";
  return spec;
}

}  // namespace

int selfTest(const Config& base) {
  SelfTest t;

  // Every workload at smoke size: all phases and all checks must pass.
  using Runner = Outcome (*)(const Config&, Tracer&);
  const std::pair<const char*, Runner> workloads[] = {
      {"experiment_catalog", runExperimentCatalog},
      {"explore_exhaustive", runExploreExhaustive},
      {"fleet_campaign", runFleetCampaign},
  };
  for (bool traced : {false, true}) {
    for (const auto& [name, run] : workloads) {
      Config cfg = base;
      cfg.workload = name;
      cfg.smoke = true;
      cfg.seconds = 1;
      cfg.trace = traced;
      Tracer tracer(traced);
      const Outcome o = run(cfg, tracer);
      std::string err;
      for (const std::string& e : o.errors) err += e + "; ";
      if (err.empty() && o.failed != 0) err = "failed operations";
      if (err.empty() && o.attempted == 0) err = "attempted nothing";
      t.expectPass(std::string("smoke ") + name + (traced ? " traced" : ""),
                   err);
    }
  }

  // Controls: a control run marked as manifested.
  {
    CampaignRow bug{"account", false, {}};
    bug.obs.manifested = true;
    CampaignRow ctl{"account_sync", true, {}};
    t.expectPass("controls quiet", checkControlsQuiet({bug, ctl}));
    ctl.obs.manifested = true;
    t.expectFail("controls: manifested control", checkControlsQuiet({bug, ctl}));
  }

  // Listener / resume-tail counts.
  t.expectPass("counts equal", checkEqualCount("events", 41, 41));
  t.expectFail("counts: off by one", checkEqualCount("events", 42, 41));

  // Decisions: a real run without noise (no sleep, so decisions == steps),
  // then the same counts with one decision dropped or added; a run with
  // mixed noise, whose sleeps leave steps without a decision.
  {
    experiment::ToolConfig quiet = catalogTools();
    quiet.noiseName = "none";
    const DirectCounts d = directRun("account", quiet, 1000);
    t.expectPass("decisions: run without sleeps",
                 d.sleepTicks == 0 ? "" : "the run slept");
    t.expectPass("decisions equal steps",
                 checkDecisions("account", d.decisions, d.steps, d.sleepTicks));
    t.expectFail("decisions: one dropped",
                 checkDecisions("account", d.decisions - 1, d.steps,
                                d.sleepTicks));
    t.expectFail("decisions: one extra",
                 checkDecisions("account", d.decisions + 1, d.steps,
                                d.sleepTicks));
    const DirectCounts n = directRun("account", catalogTools(), 1000);
    t.expectPass("decisions within sleep ticks",
                 checkDecisions("account", n.decisions, n.steps, n.sleepTicks));
    t.expectFail("decisions: steps beyond sleep ticks",
                 checkDecisions("account", n.decisions,
                                n.decisions + n.sleepTicks + 1, n.sleepTicks));
  }

  // Fresh-stack rerun: one field changed.
  const experiment::RunSpec spec = fleetLikeSpec();
  const experiment::RunObservation obs = experiment::executeRun(spec, 3);
  t.expectPass("fresh stack identical",
               checkSameObservation(obs, experiment::executeRun(spec, 3)));
  {
    experiment::RunObservation other = obs;
    other.events += 1;
    t.expectFail("fresh stack: changed observation",
                 checkSameObservation(obs, other));
  }

  // Witness: a hunted schedule, then the same schedule with one decision
  // flipped to another thread.
  {
    Witness w;
    w.program = "account";
    w.noise = "none";
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
      triage::ReplayToolConfig cfg;
      cfg.seed = seed;
      const triage::ProbeResult rec = triage::recordRun(w.program, "random", cfg);
      if (rec.signature.failure()) {
        w.seed = seed;
        w.schedule = rec.recorded;
        break;
      }
    }
    t.expectPass("witness replays exactly", checkWitness(w));
    Witness flipped = w;
    for (rt::Decision& d : flipped.schedule.decisions) {
      if (d.isThread() && d.value > 0) {
        d.value = 0;
        break;
      }
    }
    t.expectFail("witness: flipped decision", checkWitness(flipped));
  }

  // Exploration: a real exhausted space, then broken variants.
  {
    SpaceResult s;
    s.program = "account_sync";
    experiment::RunSpec es;
    es.programName = s.program;
    explore::ExploreOptions eo;
    eo.sleepSets = true;
    eo.maxSchedules = 100000;
    s.result = explore::exploreSpec(es, eo);
    s.outcomes = {"a", "b"};
    t.expectPass("space exhausted and clean", checkExhaustedClean(s));
    SpaceResult notDone = s;
    notDone.result.exhausted = false;
    t.expectFail("space: not exhausted", checkExhaustedClean(notDone));
    SpaceResult buggy = s;
    buggy.result.bugFound = true;
    t.expectFail("space: bug reported", checkExhaustedClean(buggy));

    SpaceResult full = s;
    full.result.schedules = s.result.schedules + 5;
    t.expectPass("sleep sets match full", checkSleepMatchesFull(s, full));
    SpaceResult extra = full;
    extra.outcomes.insert("c");
    t.expectFail("sleep sets: outcome set differs",
                 checkSleepMatchesFull(s, extra));
    SpaceResult more = s;
    more.result.schedules = full.result.schedules + 1;
    t.expectFail("sleep sets: more schedules", checkSleepMatchesFull(more, full));
  }

  // Fleet: serial fold of a small campaign; drop, duplicate, flip.
  {
    std::vector<experiment::RunObservation> recs;
    for (std::size_t i = 0; i < 12; ++i) {
      experiment::RunObservation o = experiment::executeRun(spec, i);
      farm::scrubTimingFields(o);
      recs.push_back(o);
    }
    t.expectPass("indices folded once", checkIndicesOnce(recs, 12));
    std::vector<experiment::RunObservation> dropped = recs;
    dropped.erase(dropped.begin() + 5);
    t.expectFail("indices: record dropped", checkIndicesOnce(dropped, 12));
    std::vector<experiment::RunObservation> dup = recs;
    dup[6] = dup[5];
    t.expectFail("indices: record duplicated", checkIndicesOnce(dup, 12));

    const std::string label = spec.tool.label();
    const std::string report = foldReport(spec.programName, label, recs);
    t.expectPass("report bytes equal",
                 checkBytesEqual("report", report,
                                 foldReport(spec.programName, label, recs)));
    t.expectFail("report: one record dropped",
                 checkBytesEqual("report",
                                 foldReport(spec.programName, label, dropped),
                                 report));
    const std::string journal = referenceJournal("cfg", 12, recs);
    std::string flippedJournal = journal;
    flippedJournal[journal.size() / 2] ^= 0x01;
    t.expectPass("journal bytes equal",
                 checkBytesEqual("journal", journal,
                                 referenceJournal("cfg", 12, recs)));
    t.expectFail("journal: flipped byte",
                 checkBytesEqual("journal", flippedJournal, journal));
  }

  std::fprintf(stderr, "self-test: %d failure(s)\n", t.failures);
  return t.failures;
}

}  // namespace perfbench

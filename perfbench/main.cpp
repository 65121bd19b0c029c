// perfbench — the mtt benchmark binary.  perfbench/run.py builds it and
// runs it; see perfbench/README.md for the workloads and metrics.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--tmp-dir D] [--trace-out F] [--no-pin]
//             [--smoke]
//   perfbench --self-test [--tmp-dir D]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "suite/program.hpp"

namespace {

using namespace perfbench;

const std::set<std::string> kEndToEnd = {
    "setup_s", "runs_per_s", "time_to_result_s", "runs_to_result",
    "peak_rss_mb"};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload experiment_catalog|"
               "explore_exhaustive|fleet_campaign --seed N --seconds S "
               "--trace 0|1 [--tmp-dir D] [--trace-out F] "
               "[--no-pin] [--smoke]\n"
               "       perfbench --self-test [--tmp-dir D]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parseU64(const std::string& flag, const std::string& v) {
  std::size_t used = 0;
  unsigned long long x = 0;
  try {
    x = std::stoull(v, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != v.size()) usage(flag + " expects an integer");
  return x;
}

/// Removes the scratch directory on every exit path of main.
struct TmpDir {
  std::string path;
  ~TmpDir() {
    std::error_code ec;
    if (!path.empty()) std::filesystem::remove_all(path, ec);
  }
};

void printResult(const Outcome& o, bool trace) {
  std::string metrics;
  char buf[128];
  for (const auto& [name, m] : o.metrics) {
    if ((kEndToEnd.count(name) != 0) == trace) continue;
    std::snprintf(buf, sizeof buf, "\"%s\": {\"value\": %.17g, \"unit\": \"",
                  name.c_str(), m.value);
    if (!metrics.empty()) metrics += ", ";
    metrics += buf + m.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      o.errors.empty() ? "true" : "false",
      static_cast<unsigned long long>(o.attempted),
      static_cast<unsigned long long>(o.failed), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  bool selfTestMode = false;
  bool haveWorkload = false;
  bool haveSeconds = false;
  cfg.tmpDir = ".bench_build/tmp";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      cfg.workload = value();
      haveWorkload = true;
    } else if (a == "--seed") {
      cfg.seed = parseU64(a, value());
    } else if (a == "--seconds") {
      cfg.seconds = static_cast<double>(parseU64(a, value()));
      haveSeconds = true;
    } else if (a == "--trace") {
      cfg.trace = parseU64(a, value()) != 0;
    } else if (a == "--tmp-dir") {
      cfg.tmpDir = value();
    } else if (a == "--trace-out") {
      cfg.traceOut = value();
    } else if (a == "--no-pin") {
      cfg.pin = false;
    } else if (a == "--smoke") {
      cfg.smoke = true;
    } else if (a == "--self-test") {
      selfTestMode = true;
    } else {
      usage("unknown argument " + a);
    }
  }
  if (!selfTestMode && (!haveWorkload || !haveSeconds)) {
    usage("--workload and --seconds are required");
  }

  // Programs in the catalog that can really crash or stall the process do
  // so only when these are set; the benchmark runs them in their soft form.
  ::unsetenv("MTT_CRASH_DEREF_HARD");
  ::unsetenv("MTT_STALL_MS");

  try {
    // Controlled mode runs one logical thread at a time, so one CPU holds a
    // whole run; pinning the main thread keeps every program thread it
    // spawns on that CPU (fleet workers pin themselves to their own CPUs).
    cfg.cpus = allowedCpus();
    if (cfg.cpus.empty()) throw std::runtime_error("no CPU in the affinity mask");
    if (cfg.pin) pinCurrentThread(cfg.cpus.front());
    TmpDir tmp;
    cfg.tmpDir += "/run-" + std::to_string(::getpid());
    std::filesystem::create_directories(cfg.tmpDir);
    tmp.path = cfg.tmpDir;
    suite::registerBuiltins();

    if (selfTestMode) return selfTest(cfg) == 0 ? 0 : 1;

    Tracer tracer(cfg.trace);
    Outcome out;
    if (cfg.workload == "experiment_catalog") {
      out = runExperimentCatalog(cfg, tracer);
    } else if (cfg.workload == "explore_exhaustive") {
      out = runExploreExhaustive(cfg, tracer);
    } else if (cfg.workload == "fleet_campaign") {
      out = runFleetCampaign(cfg, tracer);
    } else {
      usage("unknown workload " + cfg.workload);
    }
    out.set("peak_rss_mb", peakRssMb(), "MB");
    tracer.write(cfg.traceOut);
    for (const std::string& e : out.errors) {
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.c_str());
    }
    printResult(out, cfg.trace);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}

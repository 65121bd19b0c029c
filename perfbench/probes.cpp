#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

std::vector<int> allowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

void pinCurrentThread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  // pid 0: the calling thread only.
  if (sched_setaffinity(0, sizeof set, &set) != 0) {
    throw std::runtime_error("sched_setaffinity(cpu " + std::to_string(cpu) +
                             ") failed");
  }
}

double processCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

int Tracer::begin(const std::string& name, int parent) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, parent, nowNs(), 0});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int id) {
  if (id >= 0) spans_[static_cast<std::size_t>(id)].end = nowNs();
}

void Tracer::write(const std::string& path) const {
  if (!enabled_ || path.empty()) return;
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start;
  char buf[96];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "{\"id\":%zu,\"parent\":%d,\"start_ns\":%lld,\"end_ns\":%lld,",
                  i, s.parent, static_cast<long long>(s.start - origin),
                  static_cast<long long>(s.end - origin));
    out << buf << "\"name\":\"" << s.name << "\"}\n";
  }
}

ThreadId CountingPolicy::pick(const rt::PickContext& ctx) {
  ++counts_.picks;
  const std::int64_t t0 = nowNs();
  const ThreadId t = inner_->pick(ctx);
  counts_.pickNs += static_cast<std::uint64_t>(nowNs() - t0);
  return t;
}

std::uint32_t CountingPolicy::pickStore(const rt::StorePickContext& ctx) {
  ++counts_.storePicks;
  return inner_->pickStore(ctx);
}

core::FaultDecision CountingInjector::onOp(core::FaultOp op, const char* site,
                                           std::size_t bytes) {
  (void)op;
  const std::string s(site);
  const std::int64_t t = nowNs();
  std::lock_guard<std::mutex> lk(mu_);
  SiteCount& c = sites_[s];
  ++c.ops;
  c.bytes += bytes;
  if (s == "fleet.worker.send" || s == "fleet.worker.recv") {
    workers_[std::this_thread::get_id()].emplace_back(
        t, s == "fleet.worker.send");
  }
  return core::FaultDecision{};
}

std::map<std::string, CountingInjector::SiteCount> CountingInjector::sites()
    const {
  std::lock_guard<std::mutex> lk(mu_);
  return sites_;
}

std::uint64_t CountingInjector::ops(const std::string& site) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.ops;
}

std::vector<CountingInjector::Timeline> CountingInjector::workerTimelines()
    const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<Timeline> out;
  for (const auto& [id, tl] : workers_) out.push_back(tl);
  return out;
}

}  // namespace perfbench

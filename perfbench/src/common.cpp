#include "common.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <iostream>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", precision, v);
  return buf;
}

void Ledger::metric(const std::string& name, double value,
                    const std::string& unit, bool e2e) {
  metrics_[name] = Metric{value, unit, e2e};
}

void Ledger::ops(const std::string& kind, std::uint64_t attempted,
                 std::uint64_t failed) {
  Ops& o = ops_[kind];
  o.attempted += attempted;
  o.failed += failed;
}

void Ledger::check(const std::string& name, bool ok,
                   const std::string& detail) {
  if (!ok) correct_ = false;
  lines_.push_back("check " + name + (ok ? " ok " : " FAIL ") + detail);
}

void Ledger::reconcile(const std::string& name, double parts, double whole,
                       const std::string& detail) {
  const double gap = rel_diff(parts, whole);
  lines_.push_back("reconcile " + name + " parts=" + fmt(parts) +
                   " whole=" + fmt(whole) + " gap=" + fmt(gap * 100, 3) +
                   "% " + (gap <= 0.10 ? "within" : "OUTSIDE") +
                   " 10% (" + detail + ")");
}

void Ledger::note(const std::string& line) { lines_.push_back(line); }

void Ledger::print(bool trace) const {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const auto& [kind, o] : ops_) {
    std::cout << "# ops " << kind << " attempted=" << o.attempted
              << " failed=" << o.failed << '\n';
    attempted += o.attempted;
    failed += o.failed;
  }
  for (const std::string& line : lines_) std::cout << "# " << line << '\n';
  // The other metric set, for reports that compare traced and untraced runs.
  std::cout << "# other-metrics {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (m.e2e != trace) continue;
    std::cout << (first ? "" : ", ") << '"' << name << "\": " << fmt(m.value, 17);
    first = false;
  }
  std::cout << "}\n";
  // JSON has no NaN or infinity; a non-finite metric makes the run incorrect.
  bool finite = true;
  for (const auto& entry : metrics_) {
    finite = finite && std::isfinite(entry.second.value);
  }
  std::cout << "{\"correct\": " << (correct_ && finite ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  first = true;
  for (const auto& [name, m] : metrics_) {
    if (m.e2e == trace) continue;
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::cout << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
              << fmt(v, 17) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) out.push_back(c);
  }
  return out;
}

std::string cpu_list(const std::vector<int>& cpus) {
  std::string out;
  for (std::size_t i = 0; i < cpus.size();) {
    std::size_t j = i;
    while (j + 1 < cpus.size() && cpus[j + 1] == cpus[j] + 1) ++j;
    if (!out.empty()) out += ',';
    out += std::to_string(cpus[i]);
    if (j > i) {
      out += '-';
      out += std::to_string(cpus[j]);
    }
    i = j + 1;
  }
  return out;
}

PinToCpu::PinToCpu(int cpu) {
  CPU_ZERO(&saved_);
  if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  restore_ = sched_setaffinity(0, sizeof one, &one) == 0;
}

PinToCpu::~PinToCpu() {
  if (restore_) sched_setaffinity(0, sizeof saved_, &saved_);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace perfbench

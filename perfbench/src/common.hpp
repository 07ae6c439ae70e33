#pragma once
/// \file common.hpp
/// Shared plumbing of the perfbench binary: options, the result ledger
/// (metrics, operation accounting, checks, reconciliations), timing and
/// order statistics, and CPU-affinity helpers.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";  ///< where input files may be written
};

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Order statistic with linear interpolation; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Everything one run reports.  Metrics are keyed by name; `e2e` marks the
/// end-to-end set (printed by an untraced run), the rest are per-layer
/// (printed by a traced run).
class Ledger {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              bool e2e);
  /// Operation accounting by kind: clustering runs, requests, mutations...
  void ops(const std::string& kind, std::uint64_t attempted,
           std::uint64_t failed);
  /// A correctness check; a failed check makes the run incorrect.
  void check(const std::string& name, bool ok, const std::string& detail);
  /// A layer-sum reconciliation: `parts` should account for `whole`.
  void reconcile(const std::string& name, double parts, double whole,
                 const std::string& detail);
  /// Free-form context line (sample counts, reference figures).
  void note(const std::string& line);

  [[nodiscard]] bool correct() const { return correct_; }
  /// Prints the '#'-prefixed context lines, then the one-line JSON result.
  void print(bool trace) const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
    bool e2e = false;
  };
  struct Ops {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, Ops> ops_;
  std::vector<std::string> lines_;
  bool correct_ = true;
};

/// CPUs in the calling thread's affinity mask.
std::vector<int> allowed_cpus();
/// "0-3" style rendering of a CPU list.
std::string cpu_list(const std::vector<int>& cpus);

/// Pins the calling thread (and every thread it creates afterwards) to one
/// CPU for the guard's lifetime, restoring the previous mask on exit.
class PinToCpu {
 public:
  explicit PinToCpu(int cpu);
  ~PinToCpu();
  PinToCpu(const PinToCpu&) = delete;
  PinToCpu& operator=(const PinToCpu&) = delete;

 private:
  cpu_set_t saved_{};
  bool restore_ = false;
};

/// PinToCpu when `cpu` >= 0, nothing otherwise.
class MaybePin {
 public:
  explicit MaybePin(int cpu) {
    if (cpu >= 0) pin_.emplace(cpu);
  }

 private:
  std::optional<PinToCpu> pin_;
};

/// Peak resident set of this process, in MB.
double peak_rss_mb();

/// Relative difference |a - b| / |b|.
inline double rel_diff(double a, double b) {
  return a == b ? 0.0 : std::fabs(a - b) / std::fabs(b);
}

std::string fmt(double v, int precision = 6);

}  // namespace perfbench

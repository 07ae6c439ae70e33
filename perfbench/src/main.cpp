// perfbench: the repository benchmark.  One run executes one workload for
// one seed and prints every end-to-end metric (untraced run) or every
// per-layer metric (traced run) as the last line, one JSON object.
//
//   perfbench --workload batch-cluster|serve-read|serve-churn
//             --seed N --seconds S --trace 0|1
#include <link.h>
#include <csignal>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "common.hpp"
#include "phases.hpp"

namespace {

using namespace perfbench;

/// Path of the OpenMP runtime the dynamic loader actually mapped.
std::string openmp_runtime() {
  std::string found = "none";
  dl_iterate_phdr(
      [](dl_phdr_info* info, std::size_t, void* out) {
        const char* name = info->dlpi_name;
        if (name != nullptr && (std::strstr(name, "libgomp") != nullptr ||
                                std::strstr(name, "libomp") != nullptr ||
                                std::strstr(name, "libiomp") != nullptr)) {
          *static_cast<std::string*>(out) = name;
          return 1;
        }
        return 0;
      },
      &found);
  return found;
}

int usage() {
  std::cerr << "usage: perfbench --workload batch-cluster|serve-read|"
               "serve-churn --seed N --seconds S --trace 0|1\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  std::cerr << "perfbench: refusing to run an unoptimised build\n";
  return 3;
#endif
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else if (key == "--work-dir") {
      opt.work_dir = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || opt.seconds <= 0) return usage();
  std::signal(SIGPIPE, SIG_IGN);

  // Companion profiles: small fixed inputs, one thread, pinned to the last
  // CPU (the read phase pins to the first), so every run reports every
  // metric; the focus phase gets the paper-scale input, every CPU and the
  // time.  Multi-threaded companions tracked the host's steal time: the
  // Amazon parallel run moved 0.25 s -> 0.37 s within one set of runs.
  const std::vector<int> cpus = allowed_cpus();
  const int companion_cpu = cpus.empty() ? -1 : cpus.back();
  BatchProfile batch{"Amazon", 0.0, 1, companion_cpu};
  ChurnProfile churn{10000, 6, 100, 1, companion_cpu};
  ReadProfile read{"DBLP", 2.0};
  int focus = 0;  // index into `phases` below
  if (opt.workload == "batch-cluster") {
    batch = BatchProfile{"LiveJournal", opt.seconds, 0, -1};
  } else if (opt.workload == "serve-churn") {
    churn = ChurnProfile{100000, std::max(1, static_cast<int>(opt.seconds / 3)),
                         200, 0, -1};
    focus = 1;
  } else if (opt.workload == "serve-read") {
    read = ReadProfile{"YouTube", opt.seconds};
    focus = 2;
  } else {
    return usage();
  }

  std::cout << "# stamp workload=" << opt.workload << " seed=" << opt.seed
            << " seconds=" << opt.seconds << " trace=" << opt.trace
            << " nproc=" << cpus.size() << " affinity=" << cpu_list(cpus)
            << " companion_cpu=" << companion_cpu
            << " build=" << PERFBENCH_BUILD_TYPE << '\n';

  Ledger ledger;
  const std::unique_ptr<Phase> phases[] = {
      make_batch_phase(opt, batch, ledger),
      make_churn_phase(opt, churn, ledger),
      make_read_phase(opt, read, ledger),
  };
  double setup = 0.0;
  for (int i = 0; i < 3; ++i) {
    const double s = phases[i]->setup();
    if (i == focus) setup = s;
  }
  for (int slice = 0; slice < kSlices; ++slice) {
    for (const auto& phase : phases) phase->step();
  }
  for (const auto& phase : phases) phase->finish();
  ledger.metric("setup_s", setup, "s", true);
  ledger.metric("peak_rss_mb", peak_rss_mb(), "MB", true);
  ledger.note("stamp openmp_runtime=" + openmp_runtime());
  ledger.print(opt.trace);
  return 0;
}

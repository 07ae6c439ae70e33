#pragma once
/// \file phases.hpp
/// The three measured phases.  Every run executes all three, because every
/// run reports every metric; the workload picks which phase gets the large
/// input, every CPU and most of the time (the focus) and which run as small,
/// fixed-size, single-threaded companions pinned to one CPU.  The measured
/// work of all three is cut into kSlices slices that run interleaved, so
/// each metric samples the whole run rather than one stretch of it.
#include <cstdint>
#include <memory>

#include "common.hpp"

namespace perfbench {

/// Set-ups per phase; setup_s is the median over them.
inline constexpr int kSetupRepeats = 3;
/// Interleaved slices of measured work per run.
inline constexpr int kSlices = 6;

class Phase {
 public:
  virtual ~Phase() = default;
  /// Builds the input and any serving state, kSetupRepeats times; returns
  /// the median set-up time in seconds.
  virtual double setup() = 0;
  /// One slice of the measured work.
  virtual void step() = 0;
  /// End-of-run checks; records every metric of the phase.
  virtual void finish() = 0;
};

/// Library clustering: run_infomap_parallel at nproc threads against the
/// serial hot-set run_infomap, on one of the paper-network stand-ins.
struct BatchProfile {
  const char* dataset = "";  ///< a gen::dataset_registry() stand-in
  double budget_s = 0.0;     ///< timed repetitions, over all slices
  int threads = 0;           ///< parallel driver threads; 0 = every CPU
  int pin_cpu = -1;          ///< run pinned to this CPU; -1 = unpinned
};

/// Reads over TCP: a single-process ServeSession behind a NetServer, and a
/// router NetServer over two shard NetServers, on a LOADed stand-in graph.
struct ReadProfile {
  const char* dataset = "";
  double budget_s = 0.0;  ///< the four timed read loops, over all slices
};

/// Writes: rounds of ADD_EDGE/DEL_EDGE + synchronous incremental APPLY on a
/// directed LFR graph ingested as SNAP text.
struct ChurnProfile {
  std::uint32_t n = 0;  ///< LFR vertices
  int rounds_per_slice = 0;
  int mutations_per_round = 0;
  int cluster_threads = 0;  ///< SessionConfig::cluster_threads; 0 = every CPU
  int pin_cpu = -1;         ///< run pinned to this CPU; -1 = unpinned
};

std::unique_ptr<Phase> make_batch_phase(const Options& opt,
                                        const BatchProfile& profile,
                                        Ledger& ledger);
std::unique_ptr<Phase> make_read_phase(const Options& opt,
                                       const ReadProfile& profile,
                                       Ledger& ledger);
std::unique_ptr<Phase> make_churn_phase(const Options& opt,
                                        const ChurnProfile& profile,
                                        Ledger& ledger);

}  // namespace perfbench

// Batch clustering phase: the library path of the four HyPC-Map kernels.
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "asamap/core/infomap.hpp"
#include "asamap/gen/datasets.hpp"
#include "checkers.hpp"
#include "inputs.hpp"
#include "phases.hpp"

namespace perfbench {
namespace {

namespace core = asamap::core;

struct RunSample {
  double wall = 0.0;
  double codelength = 0.0;
  double pagerank = 0.0, fbc = 0.0, convert = 0.0, update = 0.0;
  double propose_critical = 0.0;
  double sweeps = 0.0, moves = 0.0, levels = 0.0;
  double accumulates = 0.0, spills = 0.0, hit_rate = 0.0;
  bool interrupted = false;
};

RunSample sample_of(const core::InfomapResult& r, double wall) {
  RunSample s;
  s.wall = wall;
  s.codelength = r.codelength;
  s.pagerank = r.kernel_wall.total(core::kernels::kPageRank);
  s.fbc = r.kernel_wall.total(core::kernels::kFindBestCommunity);
  s.convert = r.kernel_wall.total(core::kernels::kConvert2SuperNode);
  s.update = r.kernel_wall.total(core::kernels::kUpdateMembers);
  for (const core::SweepTrace& st : r.trace) {
    s.propose_critical += st.sim_seconds;
    s.moves += static_cast<double>(st.moves);
  }
  s.sweeps = static_cast<double>(r.trace.size());
  s.levels = r.levels;
  s.accumulates = static_cast<double>(r.hotset.accumulates);
  s.spills = static_cast<double>(r.hotset.spills);
  s.hit_rate = r.hotset.hit_rate();
  s.interrupted = r.interrupted;
  return s;
}

template <typename F>
double median_of(const std::vector<RunSample>& v, F field) {
  std::vector<double> xs;
  xs.reserve(v.size());
  for (const RunSample& s : v) xs.push_back(field(s));
  return median(xs);
}

class BatchPhase final : public Phase {
 public:
  BatchPhase(const Options& opt, const BatchProfile& profile, Ledger& ledger)
      : opt_(opt), profile_(profile), ledger_(ledger) {}

  double setup() override {
    const MaybePin pin(profile_.pin_cpu);
    // Generate the stand-in and relabel it by the seed; every repeat must
    // give the same graph.
    const std::uint64_t perm_seed = derive_seed(opt_.seed, 0xBA7C);
    std::vector<double> gen_s;
    ArcDigest first;
    bool repeats = true;
    for (int i = 0; i < kSetupRepeats; ++i) {
      const double t0 = now_s();
      const asamap::graph::CsrGraph base =
          asamap::gen::make_dataset(profile_.dataset);
      g_ = relabel(base, permutation(base.num_vertices(), perm_seed));
      gen_s.push_back(now_s() - t0);
      const ArcDigest d = digest_of(g_);
      if (i == 0) first = d;
      repeats = repeats && d == first;
    }
    ledger_.check("batch.gen_deterministic", repeats,
                  std::string(profile_.dataset) + " vertices=" +
                      std::to_string(g_.num_vertices()) +
                      " arcs=" + std::to_string(g_.num_arcs()));
    setup_s_ = median(gen_s);

    // One untimed run of each driver: the first parallel call also starts
    // the OpenMP team.  Its partitions are checked against the benchmark's
    // own map-equation evaluation.
    const auto [par, par_cold] = run(true);
    const auto [ser, ser_cold] = run(false);
    ledger_.note("batch.cold parallel_s=" + fmt(par_cold, 4) +
                 " serial_s=" + fmt(ser_cold, 4) +
                 " threads=" + std::to_string(threads_));
    par_codelength_ = par.codelength;
    ser_codelength_ = ser.codelength;
    const double own_par = map_equation_undirected(g_, par.communities);
    const double own_ser = map_equation_undirected(g_, ser.communities);
    const double one_level = one_level_undirected(g_);
    ledger_.check("batch.map_equation_parallel",
                  rel_diff(own_par, par.codelength) <= 1e-9,
                  "own=" + fmt(own_par, 12) +
                      " program=" + fmt(par.codelength, 12));
    ledger_.check("batch.map_equation_serial",
                  rel_diff(own_ser, ser.codelength) <= 1e-9,
                  "own=" + fmt(own_ser, 12) +
                      " program=" + fmt(ser.codelength, 12));
    ledger_.check("batch.below_one_level", par.codelength < one_level,
                  "codelength=" + fmt(par.codelength, 9) +
                      " one_level=" + fmt(one_level, 9));
    ledger_.check("batch.parallel_vs_serial",
                  par.codelength <= ser.codelength * 1.005,
                  "gap=" +
                      fmt((par.codelength / ser.codelength - 1) * 100, 4) +
                      "%");
    return setup_s_;
  }

  void step() override {
    const MaybePin pin(profile_.pin_cpu);
    // At least one run of each driver, alternating so drift hits both.
    const double start = now_s();
    do {
      const auto [pr, pw] = run(true);
      par_.push_back(sample_of(pr, pw));
      const auto [sr, sw] = run(false);
      ser_.push_back(sample_of(sr, sw));
    } while (now_s() - start < profile_.budget_s / kSlices);
  }

  void finish() override {
    bool same = true;
    std::uint64_t interrupted = 0;
    for (std::size_t i = 0; i < par_.size(); ++i) {
      same = same && par_[i].codelength == par_codelength_ &&
             ser_[i].codelength == ser_codelength_;
      interrupted += par_[i].interrupted + ser_[i].interrupted;
    }
    ledger_.check("batch.repeatable", same,
                  "reps=" + std::to_string(par_.size()) +
                      " codelength=" + fmt(par_codelength_, 12));
    ledger_.ops("cluster_runs", 2 * par_.size() + 2, interrupted);
    ledger_.note("batch.samples parallel=" + std::to_string(par_.size()) +
                 " serial=" + std::to_string(ser_.size()));

    const double cluster_s = median_of(par_, [](auto& s) { return s.wall; });
    ledger_.metric("cluster_s", cluster_s, "s", true);
    ledger_.metric("serial_cluster_s",
                   median_of(ser_, [](auto& s) { return s.wall; }), "s", true);
    ledger_.metric("codelength_bits", par_codelength_, "bits", true);

    ledger_.metric("gen.graph_s", setup_s_, "s", false);
    const double pr = median_of(par_, [](auto& s) { return s.pagerank; });
    const double fbc = median_of(par_, [](auto& s) { return s.fbc; });
    const double conv = median_of(par_, [](auto& s) { return s.convert; });
    const double upd = median_of(par_, [](auto& s) { return s.update; });
    ledger_.metric("core.pagerank_s", pr, "s", false);
    ledger_.metric("core.fbc_s", fbc, "s", false);
    ledger_.metric("core.convert_s", conv, "s", false);
    ledger_.metric("core.update_members_s", upd, "s", false);
    ledger_.metric("core.propose_critical_s",
                   median_of(par_, [](auto& s) { return s.propose_critical; }),
                   "s", false);
    ledger_.metric("core.serial_fbc_s",
                   median_of(ser_, [](auto& s) { return s.fbc; }), "s", false);
    ledger_.metric("core.serial_convert_s",
                   median_of(ser_, [](auto& s) { return s.convert; }), "s",
                   false);
    const RunSample& p = par_.front();
    ledger_.metric("core.sweeps", p.sweeps, "count", false);
    ledger_.metric("core.moves", p.moves, "count", false);
    ledger_.metric("core.levels", p.levels, "count", false);
    ledger_.metric("hashdb.accumulates", p.accumulates, "count", false);
    ledger_.metric("hashdb.spills", p.spills, "count", false);
    ledger_.metric("hashdb.hit_rate", p.hit_rate, "ratio", false);
    ledger_.metric("hashdb.serial_spills", ser_.front().spills, "count",
                   false);
    ledger_.reconcile("batch core.* kernels vs cluster_s",
                      pr + fbc + conv + upd, cluster_s,
                      "medians over " + std::to_string(par_.size()) +
                          " parallel runs");
  }

 private:
  std::pair<core::InfomapResult, double> run(bool parallel) const {
    const core::InfomapOptions options;
    const double t0 = now_s();
    core::InfomapResult r =
        parallel ? core::run_infomap_parallel(g_, options, threads_)
                 : core::run_infomap(g_, options,
                                     core::AccumulatorKind::kHotSet);
    return {std::move(r), now_s() - t0};
  }

  const Options& opt_;
  const BatchProfile profile_;
  Ledger& ledger_;
  const int threads_ = profile_.threads > 0
                           ? profile_.threads
                           : static_cast<int>(allowed_cpus().size());
  asamap::graph::CsrGraph g_;
  double setup_s_ = 0.0;
  double par_codelength_ = 0.0;
  double ser_codelength_ = 0.0;
  std::vector<RunSample> par_, ser_;
};

}  // namespace

std::unique_ptr<Phase> make_batch_phase(const Options& opt,
                                        const BatchProfile& profile,
                                        Ledger& ledger) {
  return std::make_unique<BatchPhase>(opt, profile, ledger);
}

}  // namespace perfbench

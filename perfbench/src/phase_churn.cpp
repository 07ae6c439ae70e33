// Churn phase: the serve write path — edge mutations folded by dyn and
// re-clustered warm by core — on a directed graph.
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "asamap/core/infomap.hpp"
#include "asamap/gen/lfr.hpp"
#include "asamap/graph/edge_list.hpp"
#include "asamap/metrics/partition.hpp"
#include "asamap/serve/session.hpp"
#include "asamap/support/rng.hpp"
#include "checkers.hpp"
#include "inputs.hpp"
#include "phases.hpp"

namespace perfbench {
namespace {

namespace serve = asamap::serve;

constexpr const char* kGraph = "churn";
/// Generator seed of the base LFR graph; the run's seed relabels it.
constexpr std::uint64_t kLfrSeed = 0x1F2C;
/// NMI of the final partition against the planted LFR communities must stay
/// above this floor (0.95-0.96 measured on both input sizes).
constexpr double kNmiFloor = 0.90;

std::uint64_t field_u64(const std::string& response, const char* key) {
  const std::string pat = std::string(" ") + key + "=";
  const std::size_t at = response.find(pat);
  return at == std::string::npos
             ? 0
             : std::stoull(response.substr(at + pat.size()));
}

double kernel_seconds(const asamap::obs::MetricRegistry& reg,
                      const char* kernel) {
  return reg.histogram_total_seconds(
      "asamap_kernel_seconds", std::string("kernel=\"") + kernel + "\"");
}

class ChurnPhase final : public Phase {
 public:
  ChurnPhase(const Options& opt, const ChurnProfile& profile, Ledger& ledger)
      : opt_(opt),
        profile_(profile),
        ledger_(ledger),
        rng_(derive_seed(opt.seed, 0x5EED)) {
    cfg_.cluster_threads = profile.cluster_threads;
  }

  double setup() override {
    // Sessions created here start their scheduler threads under the pin.
    const MaybePin pin(profile_.pin_cpu);
    // Generate the LFR graph, orient each edge by a fixed coin, relabel by
    // the seed, ingest it as SNAP text, and cluster.
    asamap::gen::LfrParams params;
    params.n = profile_.n;
    const std::uint64_t perm_seed = derive_seed(opt_.seed, 0xC4);
    std::vector<double> setup_s, gen_s, ingest_s, cluster_s;
    std::uint64_t errors = 0;
    for (int i = 0; i < kSetupRepeats; ++i) {
      session_.reset();
      const double t0 = now_s();
      const asamap::gen::LfrGraph lfr =
          asamap::gen::lfr_benchmark(params, kLfrSeed);
      asamap::graph::EdgeList oriented;
      asamap::support::Xoshiro256 coin(kLfrSeed ^ 0xC011ULL);
      for (std::uint32_t u = 0; u < lfr.graph.num_vertices(); ++u) {
        for (const auto& a : lfr.graph.out_neighbors(u)) {
          if (a.dst <= u) continue;
          if (coin.next_below(2) == 1) {
            oriented.add(a.dst, u, a.weight);
          } else {
            oriented.add(u, a.dst, a.weight);
          }
        }
      }
      const std::uint32_t n = lfr.graph.num_vertices();
      const std::vector<std::uint32_t> perm = permutation(n, perm_seed);
      const asamap::graph::CsrGraph g =
          relabel(asamap::graph::CsrGraph::from_edges(oriented, n), perm);
      planted_.assign(n, 0);
      for (std::uint32_t v = 0; v < n; ++v) {
        planted_[perm[v]] = lfr.ground_truth[v];
      }
      base_arcs_.clear();
      for (std::uint32_t u = 0; u < n; ++u) {
        for (const auto& a : g.out_neighbors(u)) {
          base_arcs_.emplace_back(u, a.dst);
        }
      }
      const std::string text = snap_text(g, false);
      const double t1 = now_s();
      session_ = std::make_unique<serve::ServeSession>(cfg_);
      const double t2 = now_s();
      errors += !session_->load_text(kGraph, text, false).ok();
      const double t3 = now_s();
      const std::string r =
          session_->handle_line(std::string("CLUSTER ") + kGraph + " sync");
      errors += r.find("state=done") == std::string::npos;
      const double t4 = now_s();
      setup_s.push_back(t4 - t0);
      gen_s.push_back(t1 - t0);
      ingest_s.push_back(t3 - t2);
      cluster_s.push_back(t4 - t3);
    }
    ledger_.ops("setup_requests", 2 * kSetupRepeats, errors);
    ledger_.metric("gen.lfr_s", median(gen_s), "s", false);
    ledger_.metric("graph.ingest_s", median(ingest_s), "s", false);
    ledger_.metric("core.sync_cluster_s", median(cluster_s), "s", false);

    for (const auto& [u, v] : base_arcs_) replay_.add(u, v, 1.0);
    const auto g = session_->registry().get(kGraph);
    ledger_.check("churn.ingest_csr", g && digest_of(*g) == replay_.digest(),
                  "arcs=" + std::to_string(base_arcs_.size()));
    return median(setup_s);
  }

  void step() override {
    const MaybePin pin(profile_.pin_cpu);
    for (int i = 0; i < profile_.rounds_per_slice; ++i) round();
  }

  void finish() override {
    const MaybePin pin(profile_.pin_cpu);
    ledger_.ops("mutations", mutations_, mutation_errors_);
    ledger_.ops("applies", apply_s_.size(), apply_errors_);
    ledger_.ops("churn_reads", apply_s_.size(), read_errors_);
    ledger_.check("churn.csr_replay", csr_ok_,
                  "applies=" + std::to_string(apply_s_.size()) +
                      (first_bad_.empty() ? "" : " first: " + first_bad_));
    ledger_.check("churn.read_your_apply", version_ok_,
                  "last version=" + std::to_string(version_));
    ledger_.note("churn.samples applies=" + std::to_string(apply_s_.size()) +
                 " mutations_per_apply=" +
                 std::to_string(profile_.mutations_per_round));

    // The final partition against a from-scratch clustering of the replayed
    // graph and against the planted communities.
    const auto snap = session_->snapshot(kGraph);
    const double final_codelength = snap ? snap->codelength : 0.0;
    const asamap::core::InfomapResult scratch =
        asamap::core::run_infomap_parallel(
            replay_.to_csr(static_cast<std::uint32_t>(planted_.size())),
            cfg_.infomap, cfg_.cluster_threads);
    ledger_.ops("cluster_runs", 1, scratch.interrupted ? 1 : 0);
    // One-sided: the warm incremental partition may be better.
    ledger_.check(
        "churn.incr_vs_scratch",
        final_codelength <= scratch.codelength * 1.005,
        "incr=" + fmt(final_codelength, 9) + " scratch=" +
            fmt(scratch.codelength, 9) + " gap=" +
            fmt((final_codelength / scratch.codelength - 1) * 100, 4) + "%");
    const double nmi = snap ? asamap::metrics::normalized_mutual_information(
                                  snap->communities, planted_)
                            : 0.0;
    ledger_.check("churn.nmi_vs_planted", nmi > kNmiFloor,
                  "nmi=" + fmt(nmi, 4) + " floor=" + fmt(kNmiFloor, 3));

    const double apply_med = median(apply_s_);
    ledger_.metric("apply_s", apply_med, "s", true);
    ledger_.metric("churn_codelength_bits", final_codelength, "bits", true);
    const double job_med = median(job_s_);
    const double wait_med = median(wait_s_);
    ledger_.metric("serve.job_run_s", job_med, "s", false);
    ledger_.metric("serve.queue_wait_s", wait_med, "s", false);
    ledger_.metric("dyn.fold_publish_s", median(fold_s_), "s", false);
    ledger_.metric("dyn.active_vertices", median(active_), "count", false);
    ledger_.metric("core.apply_pagerank_s", median(k_pr_), "s", false);
    ledger_.metric("core.apply_fbc_s", median(k_fbc_), "s", false);
    ledger_.metric("core.apply_update_members_s", median(k_upd_), "s", false);
    ledger_.reconcile("churn serve.job_run_s + serve.queue_wait_s vs apply_s",
                      job_med + wait_med, apply_med,
                      "medians over " + std::to_string(apply_s_.size()) +
                          " APPLYs");
  }

 private:
  /// One round: mutations, a synchronous incremental APPLY, a MEMBER read.
  void round() {
    const auto n = static_cast<std::uint32_t>(planted_.size());
    for (int m = 0; m < profile_.mutations_per_round; ++m) {
      std::string line;
      if (m % 2 == 0) {
        const auto u = static_cast<std::uint32_t>(rng_.next_below(n));
        auto v = static_cast<std::uint32_t>(rng_.next_below(n - 1));
        if (v >= u) ++v;  // no self-loops
        replay_.add(u, v, 1.0);
        line = std::string("ADD_EDGE ") + kGraph + " " + std::to_string(u) +
               " " + std::to_string(v);
      } else {
        // Delete a base arc still present (swap-remove keeps picks O(1)).
        std::size_t i = rng_.next_below(base_arcs_.size());
        while (!replay_.has(base_arcs_[i].first, base_arcs_[i].second)) {
          base_arcs_[i] = base_arcs_.back();
          base_arcs_.pop_back();
          i = rng_.next_below(base_arcs_.size());
        }
        const auto [u, v] = base_arcs_[i];
        base_arcs_[i] = base_arcs_.back();
        base_arcs_.pop_back();
        replay_.del(u, v);
        line = std::string("DEL_EDGE ") + kGraph + " " + std::to_string(u) +
               " " + std::to_string(v);
      }
      ++mutations_;
      mutation_errors_ += session_->handle_line(line).rfind("OK", 0) != 0;
    }

    const auto& reg = session_->metrics();
    const double job0 = reg.histogram_total_seconds("asamap_job_run_seconds");
    const double pr0 = kernel_seconds(reg, "PageRank");
    const double fbc0 = kernel_seconds(reg, "FindBestCommunity");
    const double cv0 = kernel_seconds(reg, "Convert2SuperNode");
    const double up0 = kernel_seconds(reg, "UpdateMembers");
    const double t0 = now_s();
    const std::string r = session_->handle_line(
        std::string("APPLY ") + kGraph + " recluster=incr sync");
    const double wall = now_s() - t0;
    apply_errors_ += r.rfind("OK", 0) != 0 ||
                     r.find("state=done") == std::string::npos;
    apply_s_.push_back(wall);
    const double job =
        reg.histogram_total_seconds("asamap_job_run_seconds") - job0;
    const double pr = kernel_seconds(reg, "PageRank") - pr0;
    const double fbc = kernel_seconds(reg, "FindBestCommunity") - fbc0;
    const double cv = kernel_seconds(reg, "Convert2SuperNode") - cv0;
    const double up = kernel_seconds(reg, "UpdateMembers") - up0;
    job_s_.push_back(job);
    wait_s_.push_back(wall - job);
    fold_s_.push_back(job - (pr + fbc + cv + up));
    k_pr_.push_back(pr);
    k_fbc_.push_back(fbc);
    k_upd_.push_back(up);
    active_.push_back(reg.gauge_value("asamap_incr_active_vertices"));
    version_ = field_u64(r, "version");

    // The served CSR must equal the replayed edge multiset.
    const auto g = session_->registry().get(kGraph);
    const ArcDigest want = replay_.digest();
    if (!g || !(digest_of(*g) == want)) {
      csr_ok_ = false;
      if (first_bad_.empty()) {
        first_bad_ = "apply " + std::to_string(apply_s_.size()) +
                     ": want arcs=" + std::to_string(want.arcs) +
                     " got arcs=" + std::to_string(g ? g->num_arcs() : 0);
      }
    }
    // The next read reports the version that APPLY left serving.
    const std::string member = session_->handle_line(
        std::string("MEMBER ") + kGraph + " " +
        std::to_string(rng_.next_below(n)));
    read_errors_ += member.rfind("OK", 0) != 0;
    version_ok_ = version_ok_ && field_u64(member, "version") == version_;
  }

  const Options& opt_;
  const ChurnProfile profile_;
  Ledger& ledger_;
  serve::SessionConfig cfg_;
  std::unique_ptr<serve::ServeSession> session_;
  std::vector<std::uint32_t> planted_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> base_arcs_;
  EdgeReplay replay_;
  asamap::support::Xoshiro256 rng_;
  std::vector<double> apply_s_, job_s_, wait_s_, fold_s_, active_;
  std::vector<double> k_pr_, k_fbc_, k_upd_;
  std::uint64_t mutations_ = 0, mutation_errors_ = 0;
  std::uint64_t apply_errors_ = 0, read_errors_ = 0;
  bool csr_ok_ = true, version_ok_ = true;
  std::string first_bad_;
  std::uint64_t version_ = 0;
};

}  // namespace

std::unique_ptr<Phase> make_churn_phase(const Options& opt,
                                        const ChurnProfile& profile,
                                        Ledger& ledger) {
  return std::make_unique<ChurnPhase>(opt, profile, ledger);
}

}  // namespace perfbench

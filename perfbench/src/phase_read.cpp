// Read phase: the serve read path behind the net front end, single process
// and through the dist router.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "asamap/dist/router.hpp"
#include "asamap/dist/shard.hpp"
#include "asamap/gen/datasets.hpp"
#include "asamap/net/server.hpp"
#include "asamap/serve/session.hpp"
#include "asamap/support/rng.hpp"
#include "checkers.hpp"
#include "inputs.hpp"
#include "phases.hpp"
#include "tcp.hpp"

namespace perfbench {
namespace {

namespace serve = asamap::serve;
namespace net = asamap::net;
namespace dist = asamap::dist;

constexpr const char* kGraph = "reads";
constexpr std::size_t kMixSize = 4096;
constexpr std::size_t kDepth = 64;  // pipelined requests in flight
constexpr std::size_t kDistRepeats = 3;  // CLUSTER mode=dist runs, median reported

using Fields = std::map<std::string, std::string, std::less<>>;

std::vector<std::string_view> split(std::string_view s) {
  std::vector<std::string_view> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t end = s.find(' ', pos);
    if (end == std::string_view::npos) end = s.size();
    out.push_back(s.substr(pos, end - pos));
    pos = end + 1;
  }
  return out;
}

Fields fields_of(std::string_view response) {
  Fields out;
  for (const std::string_view tok : split(response)) {
    const std::size_t eq = tok.find('=');
    if (eq != std::string_view::npos) {
      out.emplace(tok.substr(0, eq), tok.substr(eq + 1));
    }
  }
  return out;
}

/// Every field of `want` appears in `got` with the same value.
bool fields_match(const Fields& want, const Fields& got, std::string* why) {
  for (const auto& [k, v] : want) {
    const auto it = got.find(k);
    if (it == got.end() || it->second != v) {
      *why = k + " want=" + v +
             " got=" + (it == got.end() ? std::string("<none>") : it->second);
      return false;
    }
  }
  return true;
}

std::string fmt6(double v) { return fmt(v, 6); }  // the protocol's %.6g

/// The benchmark's own answer to a read, from the typed snapshot.
Fields expected_answer(const std::vector<std::string_view>& tok,
                       const serve::PartitionSnapshot& snap) {
  Fields f;
  const auto num = [](std::string_view s) {
    return static_cast<std::uint32_t>(std::stoul(std::string(s)));
  };
  if (tok[0] == "MEMBER") {
    const std::uint32_t v = num(tok[2]);
    const std::uint32_t c = snap.communities[v];
    f["vertex"] = std::to_string(v);
    f["community"] = std::to_string(c);
    f["flow"] = fmt6(snap.community_flow[c]);
  } else if (tok[0] == "SAME") {
    const std::uint32_t u = num(tok[2]), v = num(tok[3]);
    const std::uint32_t cu = snap.communities[u], cv = snap.communities[v];
    f["u"] = std::to_string(u);
    f["v"] = std::to_string(v);
    f["cu"] = std::to_string(cu);
    f["cv"] = std::to_string(cv);
    f["same"] = cu == cv ? "1" : "0";
  } else {
    f["vertices"] = std::to_string(snap.communities.size());
    f["arcs"] = std::to_string(snap.graph->num_arcs());
    f["communities"] = std::to_string(snap.num_communities);
    f["codelength"] = fmt6(snap.codelength);
    f["modularity"] = fmt6(snap.modularity);
  }
  return f;
}

struct LoopStats {
  std::vector<double> latency_s;  // depth-1 loops
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;
  double seconds = 0.0;
};

/// Depth-1 closed loop for `budget` seconds; one timed round trip each.
void depth1_loop(TcpLineClient& c, const std::vector<std::string>& mix,
                 std::size_t& cursor, double budget, LoopStats& st) {
  std::string resp;
  const double start = now_s();
  double t = start;
  while (t - start < budget) {
    const std::string& req = mix[cursor++ % mix.size()];
    const double t0 = now_s();
    const bool ok = c.call(req, resp);
    t = now_s();
    st.latency_s.push_back(t - t0);
    ++st.requests;
    if (!ok || resp.rfind("OK", 0) != 0) ++st.errors;
  }
  st.seconds += t - start;
}

/// Pipelined closed loop: kDepth requests per write, then their responses.
void pipelined_loop(TcpLineClient& c, const std::vector<std::string>& mix,
                    std::size_t& cursor, double budget, LoopStats& st) {
  std::vector<std::string_view> batch(kDepth);
  std::vector<std::string> resp;
  const double start = now_s();
  double t = start;
  while (t - start < budget) {
    for (std::string_view& r : batch) r = mix[cursor++ % mix.size()];
    const bool ok = c.call_pipelined(batch, resp);
    st.requests += kDepth;
    if (!ok) {
      st.errors += kDepth;
    } else {
      for (const std::string& r : resp) st.errors += r.rfind("OK", 0) != 0;
    }
    t = now_s();
  }
  st.seconds += t - start;
}

/// The read mix: exactly 80% MEMBER / 15% SAME / 5% SUMMARY in a seeded
/// order, over seeded vertices.
std::vector<std::string> make_mix(std::uint64_t seed, std::uint64_t n) {
  std::vector<int> kinds(kMixSize, 0);
  const std::size_t same = kMixSize * 15 / 100, summary = kMixSize * 5 / 100;
  std::fill(kinds.begin(), kinds.begin() + same, 1);
  std::fill(kinds.begin() + same, kinds.begin() + same + summary, 2);
  asamap::support::Xoshiro256 rng(seed);
  for (std::size_t i = kinds.size(); i > 1; --i) {
    std::swap(kinds[i - 1], kinds[rng.next_below(i)]);
  }
  std::vector<std::string> mix;
  mix.reserve(kMixSize);
  for (const int kind : kinds) {
    if (kind == 0) {
      mix.push_back(std::string("MEMBER ") + kGraph + " " +
                    std::to_string(rng.next_below(n)));
    } else if (kind == 1) {
      mix.push_back(std::string("SAME ") + kGraph + " " +
                    std::to_string(rng.next_below(n)) + " " +
                    std::to_string(rng.next_below(n)));
    } else {
      mix.push_back(std::string("SUMMARY ") + kGraph);
    }
  }
  return mix;
}

class ReadPhase final : public Phase {
 public:
  ReadPhase(const Options& opt, const ReadProfile& profile, Ledger& ledger)
      : opt_(opt),
        profile_(profile),
        ledger_(ledger),
        cpu_(allowed_cpus().empty() ? 0 : allowed_cpus().front()),
        path_(opt.work_dir + "/perfbench_reads_" +
              std::to_string(::getpid()) + ".txt"),
        load_line_(std::string("LOAD ") + kGraph + " " + path_) {
    cfg_.cluster_threads = 1;
  }

  ~ReadPhase() override {
    if (router_server_) router_server_->stop();
    if (single_server_) single_server_->stop();
    for (auto& s : shard_servers_) s->stop();
    std::remove(path_.c_str());
  }

  double setup() override {
    // Pinned: unpinned, cross-CPU wakeups between the client, the socket
    // thread and the worker dominate the round trip and do not repeat.
    // Every thread created here inherits the one-CPU mask.
    PinToCpu pin(cpu_);
    ledger_.note("read.affinity cpu=" + std::to_string(cpu_));

    // Generate the stand-in, relabel it by the seed, write it as SNAP text,
    // LOAD and cluster it in a fresh session.
    const std::uint64_t perm_seed = derive_seed(opt_.seed, 0x4EAD);
    std::vector<double> setup_s;
    std::uint64_t errors = 0;
    for (int i = 0; i < kSetupRepeats; ++i) {
      single_.reset();
      const double t0 = now_s();
      const asamap::graph::CsrGraph base =
          asamap::gen::make_dataset(profile_.dataset);
      {
        std::ofstream out(path_, std::ios::binary | std::ios::trunc);
        out << snap_text(
            relabel(base, permutation(base.num_vertices(), perm_seed)), true);
        errors += !out.good();
      }
      single_ = std::make_unique<serve::ServeSession>(cfg_);
      errors += single_->handle_line(load_line_).rfind("OK", 0) != 0;
      errors += single_->handle_line(std::string("CLUSTER ") + kGraph +
                                     " sync")
                    .find("state=done") == std::string::npos;
      setup_s.push_back(now_s() - t0);
    }
    ledger_.ops("setup_steps", 3 * kSetupRepeats, errors);
    snap_ = single_->snapshot(kGraph);
    if (!snap_ || !start_servers()) {
      ledger_.check("read.setup", false, "serving stack did not start");
      return median(setup_s);
    }

    // Served codelength against the benchmark's own map equation.
    const double own =
        map_equation_undirected(*snap_->graph, snap_->communities);
    ledger_.check("read.map_equation", rel_diff(own, snap_->codelength) <= 1e-9,
                  "own=" + fmt(own, 12) +
                      " served=" + fmt(snap_->codelength, 12));

    // Replicated ingest, then the first distributed clustering (followed by
    // a replicated CLUSTER sync, so both tiers serve the same partition).
    std::string resp;
    tier_errors_ +=
        !to_router_->call(load_line_, resp) || resp.rfind("OK", 0) != 0;
    ++tier_requests_;
    dist_cluster();
    mix_ = make_mix(derive_seed(opt_.seed, 0x4E7), snap_->communities.size());
    check_pass();
    return median(setup_s);
  }

  void step() override {
    if (!to_router_) return;
    PinToCpu pin(cpu_);
    ++steps_;
    if (steps_ % 2 == 0 && dist_s_.size() < kDistRepeats) dist_cluster();
    // The four timed loops, one slice each.
    const double slice = profile_.budget_s / (4.0 * kSlices);
    const auto& sreg = single_->metrics();
    auto h0 = sreg.histogram_merged_all("asamap_net_batch_seconds");
    depth1_loop(*to_single_, mix_, cursor_, slice, s1_);
    auto h1 = sreg.histogram_merged_all("asamap_net_batch_seconds");
    h1.subtract(h0);
    batch_hist_d1_.merge(h1);
    const std::uint64_t q0 = sreg.counter_sum("asamap_net_requests_total");
    const std::uint64_t b0 = sreg.counter_total("asamap_net_batches_total");
    pipelined_loop(*to_single_, mix_, cursor_, slice, sp_);
    net_reqs_pipe_ += sreg.counter_sum("asamap_net_requests_total") - q0;
    net_batches_pipe_ += sreg.counter_total("asamap_net_batches_total") - b0;
    const auto& rreg = router_->metrics();
    const std::uint64_t c0 =
        rreg.counter_total("asamap_router_shard_calls_total");
    auto sc0 = rreg.histogram_merged_all("asamap_router_scatter_seconds");
    depth1_loop(*to_router_, mix_, cursor_, slice, r1_);
    pipelined_loop(*to_router_, mix_, cursor_, slice, rp_);
    shard_calls_ +=
        rreg.counter_total("asamap_router_shard_calls_total") - c0;
    auto sc1 = rreg.histogram_merged_all("asamap_router_scatter_seconds");
    sc1.subtract(sc0);
    scatter_.merge(sc1);
  }

  void finish() override {
    if (!to_router_) return;
    PinToCpu pin(cpu_);
    const std::uint64_t rejected =
        single_->metrics().counter_sum("asamap_net_rejected_total") +
        router_->metrics().counter_sum("asamap_net_rejected_total");
    ledger_.ops("tier_setup_requests", tier_requests_, tier_errors_);
    ledger_.ops("read_requests", s1_.requests + sp_.requests,
                s1_.errors + sp_.errors);
    ledger_.ops("router_read_requests", r1_.requests + rp_.requests,
                r1_.errors + rp_.errors);
    ledger_.ops("ring_rejections", rejected, rejected);
    ledger_.check("read.dist_repeatable", dist_repeats_,
                  "repeats=" + std::to_string(dist_s_.size()));
    ledger_.note("read.samples depth1=" + std::to_string(s1_.latency_s.size()) +
                 " router_depth1=" + std::to_string(r1_.latency_s.size()) +
                 " pipelined_depth=" + std::to_string(kDepth) +
                 " dist_runs=" + std::to_string(dist_s_.size()));

    const double read_p50_us = quantile(s1_.latency_s, 0.5) * 1e6;
    ledger_.metric("read_rps", static_cast<double>(sp_.requests) / sp_.seconds,
                   "req/s", true);
    ledger_.metric("read_p50_us", read_p50_us, "us", true);
    ledger_.metric("router_read_rps",
                   static_cast<double>(rp_.requests) / rp_.seconds, "req/s",
                   true);
    ledger_.metric("router_read_p50_us", quantile(r1_.latency_s, 0.5) * 1e6,
                   "us", true);
    ledger_.metric("dist_cluster_s", median(dist_s_), "s", true);
    ledger_.metric("dist_codelength_bits", dist_codelength_, "bits", true);
    // Tails do not repeat within a tenth run to run: reported, not bounded.
    ledger_.metric("read_p99_us", quantile(s1_.latency_s, 0.99) * 1e6, "us",
                   false);
    ledger_.metric("router_read_p99_us", quantile(r1_.latency_s, 0.99) * 1e6,
                   "us", false);

    // Per-layer figures the program exports.
    const double net_batch_us = batch_hist_d1_.quantile_seconds(0.5) * 1e6;
    ledger_.metric("net.batch_us", net_batch_us, "us", false);
    ledger_.metric("net.batch_fill",
                   net_batches_pipe_ == 0
                       ? 0.0
                       : static_cast<double>(net_reqs_pipe_) /
                             static_cast<double>(net_batches_pipe_),
                   "req/batch", false);
    ledger_.metric("net.hop_us", read_p50_us - net_batch_us, "us", false);
    ledger_.metric("dist.scatter_us", scatter_.quantile_seconds(0.5) * 1e6,
                   "us", false);
    const std::uint64_t router_reads = r1_.requests + rp_.requests;
    ledger_.metric("dist.shard_calls_per_read",
                   static_cast<double>(shard_calls_) /
                       static_cast<double>(router_reads),
                   "calls/req", false);
    const auto field_num = [&](const char* k) {
      const auto it = dist_fields_.find(k);
      return it == dist_fields_.end() ? 0.0 : std::stod(it->second);
    };
    ledger_.metric("dist.supersteps", field_num("supersteps"), "count", false);
    ledger_.metric("dist.levels", field_num("levels"), "count", false);
    double step_s = 0.0;
    for (const auto& s : shard_sessions_) {
      step_s += s->metrics().histogram_total_seconds(
          "asamap_shard_dcluster_step_seconds");
    }
    ledger_.metric("dist.dcluster_step_s",
                   step_s / static_cast<double>(dist_s_.size()), "s", false);

    // The benchmark's own spans: in-process calls into each layer, with no
    // transport, timed per request (traced runs only).
    if (!opt_.trace) return;
    std::vector<double> line_s, batch_s, router_s;
    std::uint64_t call_errors = 0;
    const std::size_t calls = 4 * kMixSize;
    for (std::size_t i = 0; i < calls; ++i) {
      const double t0 = now_s();
      const std::string r = single_->handle_line(mix_[i % kMixSize]);
      line_s.push_back(now_s() - t0);
      call_errors += r.rfind("OK", 0) != 0;
    }
    std::vector<std::string_view> lines(kDepth);
    std::vector<std::string> out;
    for (std::size_t i = 0; i < calls; i += kDepth) {
      for (std::size_t k = 0; k < kDepth; ++k) {
        lines[k] = mix_[(i + k) % kMixSize];
      }
      const double t0 = now_s();
      single_->handle_batch(lines, out);
      batch_s.push_back((now_s() - t0) / kDepth);
    }
    for (std::size_t i = 0; i < kMixSize; ++i) {
      const double t0 = now_s();
      const std::string r = router_->handle_line(mix_[i]);
      router_s.push_back(now_s() - t0);
      call_errors += r.rfind("OK", 0) != 0;
    }
    ledger_.ops("in_process_calls", calls + kMixSize, call_errors);
    const double call_line_us = median(line_s) * 1e6;
    ledger_.metric("serve.call_line_us", call_line_us, "us", false);
    ledger_.metric("serve.call_batch_us", median(batch_s) * 1e6, "us", false);
    ledger_.metric("dist.router_call_us", median(router_s) * 1e6, "us", false);
    ledger_.reconcile("read serve.call_line_us + net.hop_us vs read_p50_us",
                      call_line_us + (read_p50_us - net_batch_us), read_p50_us,
                      "net.hop_us = read_p50_us - net.batch_us, the "
                      "server-side handler time at depth 1");
  }

 private:
  bool start_servers() {
    net::NetConfig nc;
    nc.workers = 1;
    single_server_ = std::make_unique<net::NetServer>(*single_, nc);
    if (!single_server_->start().ok()) return false;
    dist::RouterConfig rc;
    for (std::uint32_t i = 0; i < 2; ++i) {
      shard_sessions_.push_back(std::make_unique<serve::ServeSession>(cfg_));
      shards_.push_back(std::make_unique<dist::ShardSession>(
          *shard_sessions_.back(), dist::ShardConfig{i, 2}));
      shard_servers_.push_back(
          std::make_unique<net::NetServer>(*shards_.back(), nc));
      if (!shard_servers_.back()->start().ok()) return false;
      net::ClientConfig ep;
      ep.port = shard_servers_.back()->port();
      rc.shards.push_back(ep);
    }
    router_ = std::make_unique<dist::Router>(rc);
    router_server_ = std::make_unique<net::NetServer>(*router_, nc);
    if (router_->connect() != 2 || !router_server_->start().ok()) return false;
    to_single_ = std::make_unique<TcpLineClient>(single_server_->port());
    auto to_router = std::make_unique<TcpLineClient>(router_server_->port());
    if (!to_single_->ok() || !to_router->ok()) return false;
    to_router_ = std::move(to_router);
    return true;
  }

  /// One timed CLUSTER mode=dist, then a replicated CLUSTER sync so the
  /// router tier serves the single process's partition again.
  void dist_cluster() {
    std::string resp;
    const double t0 = now_s();
    const bool ok =
        to_router_->call(std::string("CLUSTER ") + kGraph + " mode=dist",
                         resp) &&
        resp.rfind("OK mode=dist state=done", 0) == 0;
    dist_s_.push_back(now_s() - t0);
    dist_fields_ = fields_of(resp);
    const auto snap = shard_sessions_.front()->snapshot(kGraph);
    const double cl = snap ? snap->codelength : 0.0;
    if (dist_s_.size() > 1) dist_repeats_ = dist_repeats_ && cl == dist_codelength_;
    dist_codelength_ = cl;
    const double gap = (cl - snap_->codelength) / snap_->codelength;
    ledger_.check("read.dist_vs_sync", ok && gap <= 0.005 && gap >= -0.005,
                  "dist=" + fmt(cl, 9) + " sync=" +
                      fmt(snap_->codelength, 9) +
                      " gap=" + fmt(gap * 100, 4) + "%");
    const bool synced =
        to_router_->call(std::string("CLUSTER ") + kGraph + " sync", resp) &&
        resp.find("state=done") != std::string::npos;
    tier_requests_ += 2;
    tier_errors_ += !ok + !synced;
  }

  /// Untimed check pass over every distinct request of the mix.
  void check_pass() {
    const std::set<std::string> distinct(mix_.begin(), mix_.end());
    std::uint64_t bad_single = 0, bad_router = 0;
    std::string first_bad, r_single, r_router, why;
    for (const std::string& req : distinct) {
      const Fields want = expected_answer(split(req), *snap_);
      const bool s_ok = to_single_->call(req, r_single) &&
                        r_single.rfind("OK", 0) == 0 &&
                        fields_match(want, fields_of(r_single), &why);
      if (!s_ok && bad_single++ == 0 && first_bad.empty()) {
        first_bad = req + " -> " + r_single + " " + why;
      }
      // The router's answer must carry every field of the single-process
      // answer, except the per-process version and job counters.
      Fields single_fields = fields_of(r_single);
      single_fields.erase("version");
      single_fields.erase("job");
      const bool r_ok = to_router_->call(req, r_router) &&
                        r_router.rfind("OK", 0) == 0 &&
                        fields_match(single_fields, fields_of(r_router), &why);
      if (!r_ok && bad_router++ == 0 && first_bad.empty()) {
        first_bad = req + " -> " + r_router + " " + why;
      }
    }
    ledger_.ops("check_requests", 2 * distinct.size(), 0);
    ledger_.check("read.single_vs_snapshot", bad_single == 0,
                  "distinct=" + std::to_string(distinct.size()) +
                      " mismatches=" + std::to_string(bad_single) +
                      (first_bad.empty() ? "" : " first: " + first_bad));
    ledger_.check("read.router_vs_single", bad_router == 0,
                  "distinct=" + std::to_string(distinct.size()) +
                      " mismatches=" + std::to_string(bad_router));
  }

  const Options& opt_;
  const ReadProfile profile_;
  Ledger& ledger_;
  const int cpu_;
  const std::string path_;
  const std::string load_line_;
  serve::SessionConfig cfg_;
  // Sessions are declared before the servers and the router that use them,
  // so they are destroyed last.
  std::unique_ptr<serve::ServeSession> single_;
  std::vector<std::unique_ptr<serve::ServeSession>> shard_sessions_;
  std::vector<std::unique_ptr<dist::ShardSession>> shards_;
  std::vector<std::unique_ptr<net::NetServer>> shard_servers_;
  std::unique_ptr<net::NetServer> single_server_;
  std::unique_ptr<dist::Router> router_;
  std::unique_ptr<net::NetServer> router_server_;
  std::unique_ptr<TcpLineClient> to_single_, to_router_;
  serve::PartitionStore::SnapshotPtr snap_;
  std::vector<std::string> mix_;
  std::size_t cursor_ = 0;
  int steps_ = 0;
  LoopStats s1_, sp_, r1_, rp_;
  asamap::support::LatencyHistogram batch_hist_d1_, scatter_;
  std::uint64_t net_reqs_pipe_ = 0, net_batches_pipe_ = 0, shard_calls_ = 0;
  std::uint64_t tier_requests_ = 0, tier_errors_ = 0;
  std::vector<double> dist_s_;
  Fields dist_fields_;
  double dist_codelength_ = 0.0;
  bool dist_repeats_ = true;
};

}  // namespace

std::unique_ptr<Phase> make_read_phase(const Options& opt,
                                       const ReadProfile& profile,
                                       Ledger& ledger) {
  return std::make_unique<ReadPhase>(opt, profile, ledger);
}

}  // namespace perfbench

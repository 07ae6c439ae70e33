#include "checkers.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "asamap/graph/edge_list.hpp"

namespace perfbench {
namespace {

double xlog2x(double x) { return x > 0.0 ? x * std::log2(x) : 0.0; }

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

double map_equation_undirected(const asamap::graph::CsrGraph& g,
                               const std::vector<std::uint32_t>& membership) {
  const std::uint32_t n = g.num_vertices();
  double total = 0.0;
  std::vector<double> strength(n, 0.0);
  for (std::uint32_t u = 0; u < n; ++u) {
    for (const auto& arc : g.out_neighbors(u)) strength[u] += arc.weight;
    total += strength[u];
  }
  std::uint32_t modules = 0;
  for (const std::uint32_t m : membership) modules = std::max(modules, m + 1);
  std::vector<double> exit(modules, 0.0);
  std::vector<double> flow(modules, 0.0);
  double node_entropy_terms = 0.0;
  for (std::uint32_t u = 0; u < n; ++u) {
    const double p = strength[u] / total;
    node_entropy_terms += xlog2x(p);
    flow[membership[u]] += p;
    for (const auto& arc : g.out_neighbors(u)) {
      if (membership[arc.dst] != membership[u]) {
        exit[membership[u]] += arc.weight / total;
      }
    }
  }
  double exit_total = 0.0;
  double exit_terms = 0.0;
  double module_terms = 0.0;
  for (std::uint32_t m = 0; m < modules; ++m) {
    if (flow[m] <= 0.0) continue;
    exit_total += exit[m];
    exit_terms += xlog2x(exit[m]);
    module_terms += xlog2x(exit[m] + flow[m]);
  }
  return xlog2x(exit_total) - 2.0 * exit_terms + module_terms -
         node_entropy_terms;
}

double one_level_undirected(const asamap::graph::CsrGraph& g) {
  const std::vector<std::uint32_t> one(g.num_vertices(), 0);
  return map_equation_undirected(g, one);
}

void ArcDigest::add(std::uint32_t u, std::uint32_t v, double w) {
  ++arcs;
  checksum += mix64((std::uint64_t{u} << 32 | v) ^
                    mix64(std::bit_cast<std::uint64_t>(w)));
}

ArcDigest digest_of(const asamap::graph::CsrGraph& g) {
  ArcDigest d;
  for (std::uint32_t u = 0; u < g.num_vertices(); ++u) {
    for (const auto& arc : g.out_neighbors(u)) d.add(u, arc.dst, arc.weight);
  }
  return d;
}

void EdgeReplay::add(std::uint32_t u, std::uint32_t v, double w) {
  arcs_[key(u, v)] += w;
}

void EdgeReplay::del(std::uint32_t u, std::uint32_t v) {
  arcs_.erase(key(u, v));
}

bool EdgeReplay::has(std::uint32_t u, std::uint32_t v) const {
  return arcs_.contains(key(u, v));
}

ArcDigest EdgeReplay::digest() const {
  ArcDigest d;
  for (const auto& [k, w] : arcs_) {
    d.add(static_cast<std::uint32_t>(k >> 32), static_cast<std::uint32_t>(k),
          w);
  }
  return d;
}

asamap::graph::CsrGraph EdgeReplay::to_csr(std::uint32_t n) const {
  std::vector<std::uint64_t> keys;
  keys.reserve(arcs_.size());
  for (const auto& entry : arcs_) keys.push_back(entry.first);
  std::sort(keys.begin(), keys.end());
  asamap::graph::EdgeList edges;
  for (const std::uint64_t k : keys) {
    edges.add(static_cast<std::uint32_t>(k >> 32),
              static_cast<std::uint32_t>(k), arcs_.at(k));
  }
  return asamap::graph::CsrGraph::from_edges(edges, n);
}

}  // namespace perfbench

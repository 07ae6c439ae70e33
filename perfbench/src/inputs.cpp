#include "inputs.hpp"

#include <numeric>
#include <utility>

#include "asamap/graph/edge_list.hpp"
#include "asamap/support/rng.hpp"

namespace perfbench {

std::vector<std::uint32_t> permutation(std::uint32_t n, std::uint64_t seed) {
  std::vector<std::uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  asamap::support::Xoshiro256 rng(seed);
  for (std::uint32_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.next_below(i)]);
  }
  return perm;
}

asamap::graph::CsrGraph relabel(const asamap::graph::CsrGraph& g,
                                const std::vector<std::uint32_t>& perm) {
  asamap::graph::EdgeList edges;
  edges.reserve(g.num_arcs());
  for (std::uint32_t u = 0; u < g.num_vertices(); ++u) {
    for (const auto& a : g.out_neighbors(u)) {
      edges.add(perm[u], perm[a.dst], a.weight);
    }
  }
  edges.coalesce();  // sorts; the arc set is unchanged (no loops, no dups)
  return asamap::graph::CsrGraph::from_edges(edges, g.num_vertices());
}

std::string snap_text(const asamap::graph::CsrGraph& g, bool undirected) {
  std::string text;
  text.reserve(static_cast<std::size_t>(g.num_arcs()) * 14);
  for (std::uint32_t u = 0; u < g.num_vertices(); ++u) {
    for (const auto& a : g.out_neighbors(u)) {
      if (undirected && a.dst < u) continue;
      text += std::to_string(u);
      text += ' ';
      text += std::to_string(a.dst);
      text += '\n';
    }
  }
  return text;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose) {
  asamap::support::Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ULL ^ purpose);
  return rng();
}

}  // namespace perfbench

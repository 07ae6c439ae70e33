#pragma once
/// \file inputs.hpp
/// Input construction.  Each phase generates one fixed base graph (the
/// generator seed is a constant of the phase) and the run's --seed picks a
/// random relabeling of its vertices plus the request and mutation streams.
/// So every seed gives a different input of identical structure: what the
/// program does with it (sweep order, hash-table placement, shard ranges,
/// request targets) changes with the seed, how much work there is does not.
#include <cstdint>
#include <string>
#include <vector>

#include "asamap/graph/csr_graph.hpp"

namespace perfbench {

/// Uniform random permutation of 0..n-1 (Fisher-Yates).
std::vector<std::uint32_t> permutation(std::uint32_t n, std::uint64_t seed);

/// The graph with vertex v renamed perm[v]; adjacency sorted, weights kept.
asamap::graph::CsrGraph relabel(const asamap::graph::CsrGraph& g,
                                const std::vector<std::uint32_t>& perm);

/// SNAP edge-list text: one "u v" line per arc, or per undirected edge
/// (u < v) when `undirected`.
std::string snap_text(const asamap::graph::CsrGraph& g, bool undirected);

/// A seed stream for one purpose of one run.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose);

}  // namespace perfbench

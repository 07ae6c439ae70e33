#pragma once
/// \file checkers.hpp
/// Independent oracles the benchmark checks the program against.  Nothing
/// here calls the library's map-equation or delta-log code: the evaluator
/// and the edge replay are written from their definitions so a bug shared
/// by the program and its own checks cannot hide.
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "asamap/graph/csr_graph.hpp"

namespace perfbench {

/// Two-level map equation of `membership` on an undirected (symmetric)
/// graph, in bits:  L = q log q - 2 sum q_m log q_m
///                      + sum (q_m + p_m) log(q_m + p_m) - sum p_v log p_v
/// with p_v = s_v / 2W the stationary visit rate, q_m the flow leaving
/// module m, q their sum, and p_m the module's total visit rate.
double map_equation_undirected(const asamap::graph::CsrGraph& g,
                               const std::vector<std::uint32_t>& membership);

/// One-module codelength: the entropy of the visit rates.
double one_level_undirected(const asamap::graph::CsrGraph& g);

/// Order-independent fingerprint of a weighted arc multiset.
struct ArcDigest {
  std::uint64_t arcs = 0;
  std::uint64_t checksum = 0;
  void add(std::uint32_t u, std::uint32_t v, double w);
  friend bool operator==(const ArcDigest&, const ArcDigest&) = default;
};

ArcDigest digest_of(const asamap::graph::CsrGraph& g);

/// The expected directed arc set after a stream of edge mutations, replayed
/// from the rules the protocol documents: ADD u v w adds w to arc (u,v),
/// creating it if absent; DEL u v removes the arc and any weight added so
/// far, so a later ADD starts again from its own weight.
class EdgeReplay {
 public:
  void add(std::uint32_t u, std::uint32_t v, double w);
  void del(std::uint32_t u, std::uint32_t v);
  [[nodiscard]] bool has(std::uint32_t u, std::uint32_t v) const;
  [[nodiscard]] ArcDigest digest() const;
  /// The replayed arcs as a directed CSR over `n` vertices.
  [[nodiscard]] asamap::graph::CsrGraph to_csr(std::uint32_t n) const;

 private:
  static std::uint64_t key(std::uint32_t u, std::uint32_t v) {
    return (std::uint64_t{u} << 32) | v;
  }
  std::unordered_map<std::uint64_t, double> arcs_;
};

}  // namespace perfbench

// Shared pieces of the ingest mutation tests (test_binary_io,
// test_dimacs): a fixed-seed byte mutator and the check every mutant
// must pass — the reader either throws or returns a graph that satisfies
// the CSR invariants.
#pragma once

#include <gtest/gtest.h>

#include <exception>
#include <string>

#include "graph/graph.h"
#include "support/rng.h"

namespace smq::testing {

/// XOR 1-4 random bytes of `bytes` with random non-zero masks.
inline void flip_random_bytes(std::string& bytes, Xoshiro256& rng) {
  if (bytes.empty()) return;
  const auto flips = 1 + rng.next_below(4);
  for (std::uint64_t i = 0; i < flips; ++i) {
    const auto pos = rng.next_below(bytes.size());
    bytes[pos] = static_cast<char>(bytes[pos] ^ (1 + rng.next_below(255)));
  }
}

/// The invariants Graph::from_csr enforces, re-checked from outside the
/// reader. `check_targets` is false for mmap'd graphs, whose adjacency
/// targets are not validated at load (see Graph::from_mapped).
inline void expect_csr_invariants(const Graph& g, bool check_targets) {
  const auto offsets = g.offsets();
  ASSERT_FALSE(offsets.empty());
  EXPECT_EQ(offsets.front(), 0u);
  EXPECT_EQ(offsets.back(), g.num_edges());
  for (std::size_t v = 1; v < offsets.size(); ++v) {
    ASSERT_LE(offsets[v - 1], offsets[v]) << "offsets decrease at " << v;
  }
  if (check_targets) {
    for (const Graph::Neighbor& n : g.adjacency()) {
      ASSERT_LT(n.to, g.num_vertices());
    }
  }
  if (!g.coordinates().empty()) {
    EXPECT_EQ(g.coordinates().x.size(), g.num_vertices());
    EXPECT_EQ(g.coordinates().y.size(), g.num_vertices());
  }
}

/// Tally of one mutation run: both outcomes must occur, or the mutator
/// is not reaching the reader's checks.
struct MutantOutcomes {
  int loaded = 0;
  int rejected = 0;

  template <typename Load>
  void run(Load&& load, bool check_targets) {
    Graph g;
    try {
      g = load();
    } catch (const std::exception&) {
      ++rejected;
      return;
    }
    ++loaded;
    expect_csr_invariants(g, check_targets);
  }
};

}  // namespace smq::testing

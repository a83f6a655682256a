// DIMACS ingest hardening: the parser must reject exactly the
// corruptions that a failed download of a multi-gigabyte .gr file
// produces — truncation, weight overflow, duplicated headers — and
// tolerate the cosmetic ones (CRLF line endings) — plus a fixed-seed
// mutation run over the checked-in sample.
#include "graph/dimacs.h"

#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <sstream>

#include "graph/dimacs_catalog.h"
#include "ingest_fuzz.h"

namespace smq {
namespace {

TEST(DimacsHardening, AcceptsCrlfLineEndings) {
  std::istringstream in(
      "c windows-fetched file\r\n"
      "\r\n"
      "p sp 3 2\r\n"
      "a 1 2 5\r\n"
      "a 2 3 7\r\n");
  const Graph g = read_dimacs_gr(in);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.neighbors(1)[0].weight, 7u);
}

TEST(DimacsHardening, CoordinatesAcceptCrlf) {
  std::istringstream gr("p sp 2 1\na 1 2 3\n");
  Graph g = read_dimacs_gr(gr);
  std::istringstream co("v 1 -73000000 41000000\r\nv 2 -74000000 42000000\r\n");
  read_dimacs_co(co, g);
  EXPECT_DOUBLE_EQ(g.coordinates().x[0], -73000000.0);
}

TEST(DimacsHardening, RejectsOverweightArc) {
  // 2^32 + 5 would static_cast down to 5 — a silently wrong graph.
  std::istringstream in("p sp 2 1\na 1 2 4294967301\n");
  EXPECT_THROW(read_dimacs_gr(in), std::runtime_error);
}

TEST(DimacsHardening, AcceptsMaxWeight) {
  std::istringstream in("p sp 2 1\na 1 2 4294967295\n");
  const Graph g = read_dimacs_gr(in);
  EXPECT_EQ(g.neighbors(0)[0].weight, 4294967295u);
}

TEST(DimacsHardening, RejectsNegativeWeight) {
  std::istringstream in("p sp 2 1\na 1 2 -7\n");
  EXPECT_THROW(read_dimacs_gr(in), std::runtime_error);
}

TEST(DimacsHardening, RejectsTruncatedFile) {
  // Declares 4 arcs, delivers 2: every line parses, so only the arc
  // count catches the truncation.
  std::istringstream in(
      "p sp 3 4\n"
      "a 1 2 5\n"
      "a 2 3 7\n");
  EXPECT_THROW(read_dimacs_gr(in), std::runtime_error);
}

TEST(DimacsHardening, RejectsExtraArcs) {
  std::istringstream in(
      "p sp 3 1\n"
      "a 1 2 5\n"
      "a 2 3 7\n");
  EXPECT_THROW(read_dimacs_gr(in), std::runtime_error);
}

TEST(DimacsHardening, RejectsDuplicateProblemLine) {
  // A concatenation of two downloads must not parse as one graph.
  std::istringstream in(
      "p sp 2 1\n"
      "a 1 2 5\n"
      "p sp 2 1\n"
      "a 1 2 5\n");
  EXPECT_THROW(read_dimacs_gr(in), std::runtime_error);
}

TEST(DimacsHardening, RejectsArcMissingFields) {
  std::istringstream in("p sp 2 1\na 1 2\n");
  EXPECT_THROW(read_dimacs_gr(in), std::runtime_error);
}

TEST(DimacsFuzz, MutantsLoadValidGraphsOrThrow) {
#ifndef SMQ_SOURCE_DIR
  GTEST_SKIP() << "SMQ_SOURCE_DIR not defined";
#else
  std::ifstream file(std::string(SMQ_SOURCE_DIR) + "/data/dimacs/sample.gr");
  ASSERT_TRUE(file.is_open()) << "data/dimacs/sample.gr not found";
  std::stringstream buffer;
  buffer << file.rdbuf();
  const std::string sample = buffer.str();
  // The problem line "p sp V E": the count fields the overwrites target.
  const std::size_t problem = sample.find("\np sp ");
  ASSERT_NE(problem, std::string::npos);
  const std::size_t problem_end = sample.find('\n', problem + 1);
  const char* counts[] = {"0",          "1",           "15",
                          "17",         "51",          "53",
                          "4294967295", "4294967296",  "18446744073709551615",
                          "-1",         "99999999999999999999999"};
  constexpr int kMutants = 600;
  Xoshiro256 rng(20240617);
  testing::MutantOutcomes outcomes;
  for (int i = 0; i < kMutants; ++i) {
    std::string mutant = sample;
    switch (i % 3) {
      case 0:
        testing::flip_random_bytes(mutant, rng);
        break;
      case 1:
        mutant.resize(rng.next_below(mutant.size()));
        break;
      default: {
        const std::string v = counts[rng.next_below(std::size(counts))];
        const std::string e = counts[rng.next_below(std::size(counts))];
        mutant.replace(problem, problem_end - problem, "\np sp " + v + ' ' + e);
        break;
      }
    }
    SCOPED_TRACE("mutant " + std::to_string(i));
    std::istringstream in(mutant);
    outcomes.run([&in] { return read_dimacs_gr(in); }, true);
  }
  EXPECT_GT(outcomes.loaded, 0);
  EXPECT_GT(outcomes.rejected, 0);
#endif
}

TEST(DimacsCatalog, LookupAndPaths) {
  const DimacsGraphInfo* usa = find_dimacs_graph("usa");
  ASSERT_NE(usa, nullptr);
  EXPECT_EQ(usa->vertices, 23947347u);
  EXPECT_EQ(usa->arcs, 58333344u);
  EXPECT_EQ(dimacs_gr_path(*usa, "/cache"), "/cache/USA-road-d.USA.gr");
  EXPECT_EQ(dimacs_co_path(*usa, "/cache"), "/cache/USA-road-d.USA.co");
  EXPECT_EQ(find_dimacs_graph("nope"), nullptr);
}

// The fetch tool's python MANIFEST pins the same |V|/|E| as the C++
// catalog; parse the script so the two cannot drift apart silently.
TEST(DimacsCatalog, MatchesFetchToolManifest) {
#ifndef SMQ_SOURCE_DIR
  GTEST_SKIP() << "SMQ_SOURCE_DIR not defined";
#else
  std::ifstream script(std::string(SMQ_SOURCE_DIR) +
                       "/tools/fetch_dimacs.py");
  ASSERT_TRUE(script.is_open()) << "tools/fetch_dimacs.py not found";
  std::stringstream buffer;
  buffer << script.rdbuf();
  const std::string text = buffer.str();

  const std::regex entry_re(
      "\"([a-z]+)\": \\{\"stem\": \"([^\"]+)\", "
      "\"vertices\": ([0-9]+), \"arcs\": ([0-9]+)\\}");
  std::size_t matched = 0;
  for (auto it = std::sregex_iterator(text.begin(), text.end(), entry_re);
       it != std::sregex_iterator(); ++it, ++matched) {
    const std::string key = (*it)[1];
    const DimacsGraphInfo* info = find_dimacs_graph(key);
    ASSERT_NE(info, nullptr) << "fetch tool graph '" << key
                             << "' missing from dimacs_catalog()";
    EXPECT_EQ(std::string(info->file_stem), (*it)[2]) << key;
    EXPECT_EQ(info->vertices, std::stoull((*it)[3])) << key;
    EXPECT_EQ(info->arcs, std::stoull((*it)[4])) << key;
  }
  EXPECT_EQ(matched, dimacs_catalog().size())
      << "catalog and fetch tool manifest list different graphs";
#endif
}

}  // namespace
}  // namespace smq

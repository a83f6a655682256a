// `--sched auto`: the paper's SMQ, unless a measured rule names a preset
// that beats it for the algorithm.
//
// A rule earns its row only with paired evidence: its preset won at
// least 9 of 10 alternating runs against `smq` on both a road graph
// (`road`, 1M vertices) and a power-law graph (`rmat`, scale 20), with
// medians further apart than smq's interquartile range. Rows are keyed
// by algorithm alone because the evidence has to hold on both graph
// classes, and by no thread count because the one surviving rule held at
// 1, 2 and 4 threads alike. The runs behind each row, and the cells no
// challenger won, are recorded in CHANGES.md.
#pragma once

#include <string>
#include <string_view>

namespace smq::tuning {

/// The pseudo-scheduler name accepted by smq_run / make_service.
inline constexpr std::string_view kAutoSchedulerName = "auto";

/// What `auto` runs when no rule matches: the paper's headline scheduler.
inline constexpr std::string_view kAutoDefaultPreset = "smq";

struct AutoRule {
  std::string_view algorithm;  // registered algorithm name
  std::string_view preset;     // registered preset key
  std::string_view evidence;   // the pairs the row stands on
};

inline constexpr AutoRule kAutoRules[] = {
    {"bfs", "pmod-d4",
     "pmod-d4 beat smq in 10/10 bfs pairs on road-1M and rmat-20 at 1, 2 "
     "and 4 threads (medians 0.48-0.80x smq's)"},
};

struct AutoSelection {
  std::string_view preset;  // registered preset key, ready for create()
  std::string_view match;   // "rule" or "default"
  std::string_view why;     // the rule's evidence, or why none applied
};

/// Resolve `auto` for one algorithm: the first matching rule's preset,
/// else kAutoDefaultPreset.
AutoSelection resolve_auto(std::string_view algorithm);

/// One-line provenance note, printed by drivers before running:
/// "auto: bfs @ 4t -> pmod-d4 [rule] (...)".
std::string describe_selection(const AutoSelection& sel,
                               std::string_view algorithm, unsigned threads);

}  // namespace smq::tuning

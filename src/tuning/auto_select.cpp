#include "tuning/auto_select.h"

#include <sstream>

namespace smq::tuning {

AutoSelection resolve_auto(std::string_view algorithm) {
  for (const AutoRule& rule : kAutoRules) {
    if (rule.algorithm == algorithm) {
      return {rule.preset, "rule", rule.evidence};
    }
  }
  return {kAutoDefaultPreset, "default",
          "no measured rule for this algorithm; the paper's default"};
}

std::string describe_selection(const AutoSelection& sel,
                               std::string_view algorithm, unsigned threads) {
  std::ostringstream os;
  os << "auto: " << algorithm << " @ " << threads << "t -> " << sel.preset
     << " [" << sel.match << "] — " << sel.why;
  return os.str();
}

}  // namespace smq::tuning

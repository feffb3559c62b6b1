#include "valcon/core/execution_checker.hpp"

#include <utility>

namespace valcon::core {

ExecutionReport check_execution(const ValidityProperty& val, int n, int t,
                                const std::vector<Value>& proposals,
                                const std::set<ProcessId>& faulty,
                                const std::map<ProcessId, Value>& decisions) {
  ExecutionReport report;
  report.input_config = InputConfig(n);
  for (ProcessId p = 0; p < n; ++p) {
    if (faulty.count(p) != 0) continue;
    report.input_config.set(p, proposals[static_cast<std::size_t>(p)]);
  }
  if (!report.input_config.valid_for(n, t)) {
    report.violations.push_back(
        "execution has more than t faulty processes: outside the model");
    return report;
  }

  report.termination = true;
  for (ProcessId p = 0; p < n; ++p) {
    if (faulty.count(p) != 0) continue;
    if (decisions.count(p) == 0) {
      report.termination = false;
      report.violations.push_back("Termination: P" + std::to_string(p) +
                                  " never decided");
    }
  }

  report.agreement = true;
  std::optional<Value> seen;
  for (const auto& [p, v] : decisions) {
    if (faulty.count(p) != 0) continue;  // faulty decisions are unconstrained
    if (seen.has_value() && *seen != v) {
      report.agreement = false;
      report.violations.push_back(
          "Agreement: conflicting decisions " + std::to_string(*seen) +
          " and " + std::to_string(v));
    }
    seen = v;
  }

  // admissible() may scan the whole configuration (Strong validity's
  // unanimity test is O(n)), and correct processes nearly always decide
  // one value, so judge each run of equal decided values once.
  report.validity = true;
  std::optional<std::pair<Value, bool>> last_verdict;
  for (const auto& [p, v] : decisions) {
    if (faulty.count(p) != 0) continue;
    if (!last_verdict.has_value() || last_verdict->first != v) {
      last_verdict.emplace(v, val.admissible(report.input_config, v));
    }
    if (!last_verdict->second) {
      report.validity = false;
      report.violations.push_back(
          "Validity(" + val.name() + "): P" + std::to_string(p) +
          " decided " + std::to_string(v) + " not in val(" +
          report.input_config.to_string() + ")");
    }
  }
  return report;
}

}  // namespace valcon::core

// E3 — Theorem 3 / Definition 2: the similarity condition and the Λ
// function.
//
// For every named property and small system, checks C_S by enumeration and
// cross-validates the closed-form Λ against the generic ⋂_{c'~c} val(c')
// intersection, reporting agreement rates and enumeration costs (the
// "finite procedure" of Theorem 2 made concrete). The cost is counted, not
// timed — the similar configurations the soundness check visits — so the
// output is a function of the code alone.
#include <cstdio>
#include <vector>

#include "valcon/core/classification.hpp"
#include "valcon/harness/table.hpp"

using namespace valcon;
using namespace valcon::core;

int main() {
  std::printf("==== E3 / Theorem 3: similarity condition C_S and Λ ====\n\n");
  harness::Table table({"property", "n", "t", "|I_{n-t}|", "C_S",
                        "closed-form Λ defined", "Λ sound", "sim(c) visited"});

  const std::vector<Value> domain = {0, 1, 2};
  for (const auto& [n, t] : std::vector<std::pair<int, int>>{{4, 1}, {5, 1}}) {
    const StrongValidity strong;
    const WeakValidity weak;
    const CorrectProposalValidity correct;
    const ConvexHullValidity hull;
    const MedianValidity median(n, t);
    for (const ValidityProperty* val :
         {static_cast<const ValidityProperty*>(&strong),
          static_cast<const ValidityProperty*>(&weak),
          static_cast<const ValidityProperty*>(&correct),
          static_cast<const ValidityProperty*>(&hull),
          static_cast<const ValidityProperty*>(&median)}) {
      int configs = 0;
      long visited = 0;
      int lambda_defined = 0;
      int lambda_sound = 0;
      bool cs_holds = true;
      for_each_config(n, domain, n - t, n - t, [&](const InputConfig& c) {
        ++configs;
        const auto generic = generic_lambda(*val, c, t, domain, domain);
        if (!generic.has_value()) cs_holds = false;
        const auto closed = val->closed_form_lambda(c, n, t);
        if (closed.has_value()) {
          ++lambda_defined;
          bool sound = true;
          for_each_similar(c, t, domain, [&](const InputConfig& sim_c) {
            ++visited;
            if (!val->admissible(sim_c, *closed)) {
              sound = false;
              return false;
            }
            return true;
          });
          if (sound) ++lambda_sound;
        }
        return true;
      });
      table.add_row(
          {val->name(), std::to_string(n), std::to_string(t),
           std::to_string(configs), cs_holds ? "holds" : "FAILS",
           std::to_string(lambda_defined) + "/" + std::to_string(configs),
           std::to_string(lambda_sound) + "/" + std::to_string(lambda_defined),
           std::to_string(visited)});
    }
  }
  table.print();
  std::printf(
      "\nReading: C_S holds for Strong/Weak/ConvexHull/Median with n > 3t\n"
      "and every closed-form Λ lands in the enumerated intersection\n"
      "(soundness of Universal's decision rule, Lemma 8). Correct-Proposal\n"
      "over |V| = 3 fails C_S at these sizes — unsolvable by Theorem 3 —\n"
      "and accordingly its Λ is undefined on the offending vectors.\n");
  return 0;
}

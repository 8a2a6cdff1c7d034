#include "checks.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

namespace h2o::e2e {

namespace {

template <typename... Args>
void
fail(Failures &out, const Args &...args)
{
    std::ostringstream os;
    os.precision(17);
    (os << ... << args);
    out.push_back(os.str());
}

bool
closeRel(double a, double b, double rel)
{
    return std::abs(a - b) <= rel * std::max(std::abs(a), std::abs(b));
}

using Point = std::pair<double, double>; ///< (quality, cost)

/** Distinct non-dominated (quality, cost) values, cost ascending:
 *  quality is maximized, cost minimized. O(n^2) on purpose — it shares
 *  nothing with the program's sort-and-sweep front. */
std::vector<Point>
bruteForceFront(const std::vector<Point> &points)
{
    std::vector<Point> front;
    for (const Point &p : points) {
        bool dominated = false;
        for (const Point &o : points) {
            bool no_worse = o.first >= p.first && o.second <= p.second;
            bool better = o.first > p.first || o.second < p.second;
            if (no_worse && better) {
                dominated = true;
                break;
            }
        }
        if (!dominated &&
            std::find(front.begin(), front.end(), p) == front.end())
            front.push_back(p);
    }
    std::sort(front.begin(), front.end(),
              [](const Point &a, const Point &b) { return a.second < b.second; });
    return front;
}

/** The program's front (indices into `points`) must hold exactly the
 *  brute-force front's values, once each, in ascending cost order. */
void
checkFront(const std::string &what, const std::vector<Point> &points,
           const std::vector<size_t> &indices, Failures &out)
{
    std::vector<Point> got;
    for (size_t i : indices) {
        if (i >= points.size()) {
            fail(out, what, ": front index ", i, " outside history of ",
                 points.size());
            return;
        }
        got.push_back(points[i]);
    }
    std::vector<Point> want = bruteForceFront(points);
    if (got != want)
        fail(out, what, ": front has ", got.size(),
             " points, brute force finds ", want.size(),
             " (or they differ in value or order)");
}

void
checkComparisons(const std::string &what,
                 const std::vector<SimComparison> &cmp, Failures &out)
{
    if (cmp.empty())
        fail(out, what, ": nothing compared");
    for (size_t i = 0; i < cmp.size(); ++i)
        if (cmp[i].program != cmp[i].reference)
            fail(out, what, " #", i, ": program ", cmp[i].program,
                 " != uncached simulator ", cmp[i].reference);
}

double
mean(const std::vector<double> &xs, size_t begin, size_t end)
{
    double sum = 0.0;
    for (size_t i = begin; i < end; ++i)
        sum += xs[i];
    return sum / double(end - begin);
}

std::vector<Point>
historyPoints(const std::vector<search::CandidateRecord> &history,
              size_t perf_index)
{
    std::vector<Point> points;
    points.reserve(history.size());
    for (const auto &rec : history)
        points.emplace_back(rec.quality,
                            perf_index < rec.performance.size()
                                ? rec.performance[perf_index]
                                : 0.0);
    return points;
}

bool
sameOutcome(const serve::JobResult &a, const serve::JobResult &b)
{
    if (a.bestReward != b.bestReward ||
        a.paretoIndices != b.paretoIndices ||
        a.outcome.finalMeanReward != b.outcome.finalMeanReward ||
        a.outcome.finalEntropy != b.outcome.finalEntropy ||
        a.outcome.finalSample != b.outcome.finalSample ||
        a.outcome.history.size() != b.outcome.history.size())
        return false;
    for (size_t i = 0; i < a.outcome.history.size(); ++i) {
        const auto &x = a.outcome.history[i];
        const auto &y = b.outcome.history[i];
        if (x.sample != y.sample || x.quality != y.quality ||
            x.performance != y.performance || x.reward != y.reward ||
            x.step != y.step)
            return false;
    }
    return true;
}

} // namespace

double
reluReward(double quality, const std::vector<double> &performance,
           const std::vector<ReluObjective> &objectives)
{
    double reward = quality;
    for (size_t i = 0; i < objectives.size(); ++i)
        reward += objectives[i].beta *
                  std::max(0.0, performance[i] / objectives[i].target - 1.0);
    return reward;
}

double
minReluReward(double quality, const std::vector<double> &performance,
              const std::vector<ReluObjective> &objectives)
{
    double worst = 0.0;
    for (size_t c = 0; c < objectives.size(); ++c) {
        double r = quality +
                   objectives[c].beta *
                       std::max(0.0,
                                performance[c] / objectives[c].target - 1.0);
        if (c == 0 || r < worst)
            worst = r;
    }
    return worst;
}

Failures
checkPerfmodel(const PerfmodelEvidence &ev)
{
    Failures out;
    if (!(ev.finetunedNrmse < ev.pretrainedNrmse))
        fail(out, "fine-tuned NRMSE ", ev.finetunedNrmse,
             " is not below the pretrained NRMSE ", ev.pretrainedNrmse,
             " on the same oracle set");
    if (!(ev.finetunedNrmse < ev.nrmseCeiling))
        fail(out, "fine-tuned NRMSE ", ev.finetunedNrmse,
             " is not below the ceiling ", ev.nrmseCeiling);
    checkComparisons("label", ev.labels, out);
    if (ev.bounds.empty())
        fail(out, "no simulated step time checked against its bounds");
    for (const BoundSample &b : ev.bounds) {
        const sim::SimResult &r = b.result;
        const double slack = 1.0 - 1e-9;
        double compute = r.totalFlops / b.peakTensorFlops;
        if (!(r.stepTimeSec > 0.0) || !std::isfinite(r.stepTimeSec))
            fail(out, b.chip, ": step time ", r.stepTimeSec,
                 " is not a positive number");
        if (!(r.stepTimeSec >= compute * slack))
            fail(out, b.chip, ": step time ", r.stepTimeSec,
                 " below the compute bound totalFlops/peak = ", compute);
        if (!(r.stepTimeSec >= r.hbmSec * slack))
            fail(out, b.chip, ": step time ", r.stepTimeSec,
                 " below the HBM time ", r.hbmSec);
    }
    return out;
}

Failures
checkSupernet(const SupernetEvidence &ev)
{
    Failures out;
    if (ev.history.size() != ev.shards * ev.steps)
        fail(out, "history has ", ev.history.size(), " records, expected ",
             ev.shards * ev.steps);
    for (size_t i = 0; i < ev.history.size(); ++i) {
        const auto &rec = ev.history[i];
        if (rec.performance.size() != ev.objectives.size()) {
            fail(out, "record ", i, " has ", rec.performance.size(),
                 " objectives");
            continue;
        }
        double want = reluReward(rec.quality, rec.performance, ev.objectives);
        if (!closeRel(rec.reward, want, 1e-12))
            fail(out, "record ", i, ": reward ", rec.reward,
                 " != recomputed ReLU reward ", want);
    }
    checkComparisons("step time", ev.stepTimes, out);
    if (ev.alphaOnlyLeases != 0)
        fail(out, ev.alphaOnlyLeases,
             " batches scored candidates without training weights");
    uint64_t want_batches = ev.shards * (ev.steps + ev.warmupSteps);
    if (ev.completeLeases != ev.batchesIssued ||
        ev.batchesIssued != want_batches)
        fail(out, "leases: ", ev.completeLeases, " complete, ",
             ev.batchesIssued, " issued, expected ", want_batches);
    if (ev.examplesIssued != ev.batchSize * ev.batchesIssued)
        fail(out, "examples issued ", ev.examplesIssued, " != batch ",
             ev.batchSize, " x batches ", ev.batchesIssued);
    const size_t n = ev.stepLosses.size();
    if (n < 10) {
        fail(out, "only ", n, " step losses recorded");
    } else {
        size_t tenth = n / 10;
        double first = mean(ev.stepLosses, 0, tenth);
        double last = mean(ev.stepLosses, n - tenth, n);
        if (!(last < first))
            fail(out, "training loss did not fall: first tenth ", first,
                 ", last tenth ", last);
    }
    return out;
}

Failures
checkMultitarget(const MultitargetEvidence &ev)
{
    Failures out;
    const size_t k = ev.objectives.size();
    if (ev.fronts.size() != k)
        fail(out, ev.fronts.size(), " fronts for ", k, " chips");
    for (size_t c = 0; c < std::min(k, ev.fronts.size()); ++c)
        checkFront("chip " + ev.fronts[c].target,
                   historyPoints(ev.history, c), ev.fronts[c].indices, out);
    for (size_t i = 0; i < ev.history.size(); ++i) {
        const auto &rec = ev.history[i];
        if (rec.performance.size() != k) {
            fail(out, "record ", i, " has ", rec.performance.size(),
                 " per-chip costs");
            continue;
        }
        double want = minReluReward(rec.quality, rec.performance,
                                    ev.objectives);
        if (!closeRel(rec.reward, want, 1e-12))
            fail(out, "record ", i, ": reward ", rec.reward,
                 " != min of per-chip ReLU rewards ", want);
    }
    uint64_t lookups = ev.history.size() * k;
    if (ev.hits + ev.misses != lookups)
        fail(out, "cache hits ", ev.hits, " + misses ", ev.misses,
             " != lookups implied by the history ", lookups);
    if (ev.misses != ev.distinctPairs)
        fail(out, "cache misses ", ev.misses, " != distinct (candidate, "
             "chip) pairs ", ev.distinctPairs);
    return out;
}

Failures
checkServe(const ServeEvidence &ev)
{
    Failures out;
    if (ev.jobs.empty())
        fail(out, "no jobs served");
    size_t probes = 0;
    for (const ServedJob &job : ev.jobs) {
        const std::string name = "job " + job.spec.name;
        if (!job.done) {
            fail(out, name, " did not reach Done");
            continue;
        }
        const auto &history = job.result.outcome.history;
        double best = -std::numeric_limits<double>::infinity();
        for (const auto &rec : history)
            best = std::max(best, rec.reward);
        if (history.empty() || job.result.bestReward != best)
            fail(out, name, ": bestReward ", job.result.bestReward,
                 " != max history reward ", best);
        checkFront(name, historyPoints(history, 0),
                   job.result.paretoIndices, out);
        if (job.probed) {
            ++probes;
            if (!sameOutcome(job.result, job.standalone))
                fail(out, name, ": served result differs from "
                     "serve::runStandalone");
        }
    }
    if (probes == 0)
        fail(out, "no job was probed against serve::runStandalone");
    return out;
}

} // namespace h2o::e2e

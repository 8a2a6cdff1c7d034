/**
 * @file
 * Shared plumbing of the end-to-end benchmark: run options, metric
 * lists, the span tracer and small statistics helpers.
 *
 * Every workload runs whole ROUNDS of the same work, each on inputs from
 * its own seed, until the run's time is up, so each round is one sample
 * of the same measurement. Spans are recorded only in traced rounds; an
 * untraced round reads no clock below the round boundary.
 */

#ifndef H2O_E2E_BENCH_H
#define H2O_E2E_BENCH_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace h2o::e2e {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

/** Command-line options of one benchmark process. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Tiny sizes: the benchmark's own tests run every workload fast. */
    bool tiny = false;
    /** Worker threads (by default the CPUs this process may run on). */
    size_t threads = 1;
    /** Chrome trace-event output of a traced run ("" = none). */
    std::string traceFile;
};

/** CPUs this process may run on: its affinity mask, which `nproc`
 *  reports too (a cpuset or taskset can make it smaller than the
 *  machine's CPU count). */
size_t availableCpus();

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

using Metrics = std::vector<Metric>;

/** Failure messages of a correctness check; empty = passed. */
using Failures = std::vector<std::string>;

/** One recorded span. Names are string literals (never freed). */
struct SpanRecord
{
    const char *name = "";
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t job = 0;
    uint32_t tid = 0;
    int64_t startNs = 0;
    int64_t endNs = 0;

    double seconds() const { return double(endNs - startNs) * 1e-9; }
};

/**
 * In-memory span recorder. Disabled, a Span costs one relaxed load.
 * Enabled, each span reads the clock twice and appends one record under
 * a mutex when it ends. Parents follow the per-thread stack of open
 * spans unless the caller names one (work handed to pool threads).
 */
class Tracer
{
  public:
    void setEnabled(bool on) { _enabled.store(on, std::memory_order_relaxed); }
    bool enabled() const { return _enabled.load(std::memory_order_relaxed); }

    uint64_t nextId() { return _nextId.fetch_add(1) + 1; }
    void record(const SpanRecord &rec);

    /** Snapshot of every span recorded so far. */
    std::vector<SpanRecord> spans() const;

    /** Write every span as Chrome trace-event JSON (Perfetto opens it):
     *  complete events with the span id, parent id and job id in args. */
    void writeChromeJson(const std::string &path) const;

  private:
    std::atomic<bool> _enabled{false};
    std::atomic<uint64_t> _nextId{0};
    mutable std::mutex _mutex;
    std::vector<SpanRecord> _spans;
};

/** The process-wide tracer. */
Tracer &tracer();

/** Nanoseconds on the steady clock (CLOCK_MONOTONIC on Linux). */
int64_t nowNs();

/** Small dense id of the calling thread, for trace rows. */
uint32_t threadIndex();

/** RAII span; a no-op while the tracer is disabled. */
class Span
{
  public:
    /** @param parent Explicit parent span id; 0 = the innermost open
     *         span on this thread. */
    explicit Span(const char *name, uint64_t job = 0, uint64_t parent = 0);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** This span's id (0 when tracing is off). */
    uint64_t id() const { return _rec.id; }

  private:
    SpanRecord _rec;
    uint64_t _savedCurrent = 0;
};

/** Linear-interpolated percentile (p in [0, 1]) of unsorted values. */
double percentile(std::vector<double> values, double p);

inline double
median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5);
}

/** Peak resident set size of this process in MiB (VmHWM). */
double peakRssMiB();

/** CPU time this process has used (all threads), in seconds. */
double processCpuSeconds();

/** CPU time the hypervisor has stolen from this machine's virtual CPUs
 *  (the steal column of /proc/stat, summed over CPUs), in seconds. */
double stolenCpuSeconds();

} // namespace h2o::e2e

#endif // H2O_E2E_BENCH_H

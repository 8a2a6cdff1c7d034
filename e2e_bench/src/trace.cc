#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include "bench.h"

namespace h2o::e2e {

namespace {

thread_local uint64_t t_currentSpan = 0;

} // namespace

Tracer &
tracer()
{
    static Tracer t;
    return t;
}

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

uint32_t
threadIndex()
{
    static std::atomic<uint32_t> next{0};
    thread_local uint32_t index = next.fetch_add(1) + 1;
    return index;
}

void
Tracer::record(const SpanRecord &rec)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _spans.push_back(rec);
}

std::vector<SpanRecord>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _spans;
}

void
Tracer::writeChromeJson(const std::string &path) const
{
    std::vector<SpanRecord> all = spans();
    std::sort(all.begin(), all.end(),
              [](const SpanRecord &a, const SpanRecord &b) {
                  return a.startNs < b.startNs;
              });
    int64_t origin = all.empty() ? 0 : all.front().startNs;
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write trace file '" + path + "'");
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    char buf[512];
    for (size_t i = 0; i < all.size(); ++i) {
        const SpanRecord &s = all[i];
        std::snprintf(
            buf, sizeof buf,
            "{\"name\":\"%s\",\"cat\":\"h2o\",\"ph\":\"X\",\"pid\":1,"
            "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
            "\"parent\":%llu,\"job\":%llu}}%s\n",
            s.name, s.tid, double(s.startNs - origin) * 1e-3,
            double(s.endNs - s.startNs) * 1e-3,
            static_cast<unsigned long long>(s.id),
            static_cast<unsigned long long>(s.parent),
            static_cast<unsigned long long>(s.job),
            i + 1 < all.size() ? "," : "");
        out << buf;
    }
    out << "]}\n";
    if (!out)
        throw std::runtime_error("failed writing trace file '" + path +
                                 "'");
}

Span::Span(const char *name, uint64_t job, uint64_t parent)
{
    Tracer &t = tracer();
    if (!t.enabled())
        return;
    _rec.name = name;
    _rec.id = t.nextId();
    _rec.parent = parent ? parent : t_currentSpan;
    _rec.job = job;
    _rec.tid = threadIndex();
    _savedCurrent = t_currentSpan;
    t_currentSpan = _rec.id;
    _rec.startNs = nowNs();
}

Span::~Span()
{
    if (_rec.id == 0)
        return;
    _rec.endNs = nowNs();
    t_currentSpan = _savedCurrent;
    tracer().record(_rec);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double rank = p * double(values.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = rank - double(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double
stolenCpuSeconds()
{
    std::ifstream stat("/proc/stat");
    std::string cpu;
    uint64_t user = 0, nice = 0, sys = 0, idle = 0, iowait = 0, irq = 0,
             softirq = 0, steal = 0;
    stat >> cpu >> user >> nice >> sys >> idle >> iowait >> irq >> softirq >>
        steal;
    if (!stat || cpu != "cpu")
        return 0.0;
    return double(steal) / double(sysconf(_SC_CLK_TCK));
}

size_t
availableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return 1;
    return std::max(1, CPU_COUNT(&set));
}

double
peakRssMiB()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kib = 0.0;
            fields >> kib;
            return kib / 1024.0;
        }
    }
    return 0.0;
}

} // namespace h2o::e2e

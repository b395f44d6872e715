#include "harness.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/check.h"
#include "host/sha256.h"
#include "sim/random.h"

namespace mtia::perfbench {

double
CpuTimer::now()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts); // sim-lint: allow(wall-clock) — benchmark stopwatch, never reaches a simulated result
    return static_cast<double>(ts.tv_sec) +
        static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
quantile(std::vector<double> v, double q)
{
    MTIA_CHECK(!v.empty()) << ": quantile of no samples";
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

int
SpanRecorder::begin(const std::string &name, std::uint64_t op)
{
    Span s;
    s.name = name;
    s.op = op;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start_s = clock_.seconds();
    spans_.push_back(std::move(s));
    const int index = static_cast<int>(spans_.size() - 1);
    open_.push_back(index);
    return index;
}

void
SpanRecorder::end(int index)
{
    MTIA_CHECK(!open_.empty() && open_.back() == index)
        << ": span " << index << " closed out of order";
    spans_[static_cast<std::size_t>(index)].end_s = clock_.seconds();
    open_.pop_back();
}

std::vector<double>
SpanRecorder::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_) {
        if (s.name == name)
            out.push_back(s.end_s - s.start_s);
    }
    return out;
}

double
SpanRecorder::total(const std::string &name) const
{
    double sum = 0.0;
    for (double d : durations(name))
        sum += d;
    return sum;
}

double
SpanRecorder::selfSeconds(int index) const
{
    const Span &s = spans_[static_cast<std::size_t>(index)];
    double self = s.end_s - s.start_s;
    // Children are recorded after their parent, and siblings never
    // overlap, so direct children's durations subtract exactly.
    for (std::size_t j = static_cast<std::size_t>(index) + 1;
         j < spans_.size() && spans_[j].start_s < s.end_s; ++j) {
        if (spans_[j].parent == index)
            self -= spans_[j].end_s - spans_[j].start_s;
    }
    return self;
}

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                     "\"parent\":%d,\"op\":%llu}}\n",
                     i == 0 ? "" : ",", s.name.c_str(), s.start_s * 1e6,
                     (s.end_s - s.start_s) * 1e6, i, s.parent,
                     static_cast<unsigned long long>(s.op));
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

const std::vector<WorkloadSpec> &
workloadSpecs()
{
    static const std::vector<WorkloadSpec> specs = {
        {"cluster_chaos", "simulated requests",
         "one 64-chip chaos ClusterSimulator::simulate, 12k QPS x 2 "
         "simulated s",
         &makeClusterChaos},
        {"codesign_sweep", "design points",
         "nine Figure 6 models x (GraphCostModel::evaluate + "
         "KernelTuner::tuneSurrogate)",
         &makeCodesignSweep},
        {"functional_inference", "samples",
         "one Executor::run of a DHEN ranking model, batch 192",
         &makeFunctionalInference},
        {"codec_roundtrip", "MB",
         "rANS v2 + LZ round trip of four 512 KiB buffers, SHA-256 "
         "checked",
         &makeCodecRoundtrip},
    };
    return specs;
}

std::uint64_t
opSeed(std::uint64_t seed, std::uint64_t i)
{
    return Rng(seed).fork(i).next();
}

std::string
sha256Hex(const std::vector<std::uint8_t> &bytes)
{
    return Sha256::hex(Sha256::hash(bytes));
}

} // namespace mtia::perfbench

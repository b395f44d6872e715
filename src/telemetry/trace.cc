#include "telemetry/trace.h"

#include <fstream>
#include <sstream>

#include "core/check.h"
#include "telemetry/json.h"

namespace mtia::telemetry {

namespace {

/**
 * Chrome trace timestamps are microseconds; ticks are picoseconds.
 * Print as integer micros plus a 6-digit fraction — pure integer math,
 * so the output is deterministic to the last byte.
 */
void
writeMicros(std::ostream &os, Tick t)
{
    os << t / 1000000 << '.';
    Tick frac = t % 1000000;
    char buf[7];
    buf[6] = '\0';
    for (int i = 5; i >= 0; --i) {
        buf[i] = static_cast<char>('0' + frac % 10);
        frac /= 10;
    }
    os << buf;
}

} // namespace

TrackId
TraceRecorder::track(const std::string &process, const std::string &thread)
{
    std::uint32_t pid = 0;
    for (const Track &t : tracks_) {
        if (t.process == process) {
            pid = t.id.pid;
            if (t.thread == thread)
                return t.id;
        }
    }
    if (pid == 0) {
        std::uint32_t max_pid = 0;
        for (const Track &t : tracks_)
            max_pid = std::max(max_pid, t.id.pid);
        pid = max_pid + 1;
    }
    std::uint32_t tid = 1;
    for (const Track &t : tracks_)
        if (t.id.pid == pid)
            tid = std::max(tid, t.id.tid + 1);
    const TrackId id{pid, tid};
    tracks_.push_back(Track{process, thread, id});
    return id;
}

bool
TraceRecorder::full()
{
    if (capacity_ != 0 && events_.size() >= capacity_) {
        ++dropped_;
        return true;
    }
    return false;
}

void
TraceRecorder::complete(TrackId t, std::string_view name,
                        std::string_view cat, Tick start, Tick end)
{
    if (!enabled_ || full())
        return;
    MTIA_CHECK_LE(start, end) << ": trace complete event ends before it starts";
    events_.push_back(Event{'X', t, start, end - start, 0,
                            std::string(name), std::string(cat)});
}

void
TraceRecorder::instant(TrackId t, std::string_view name,
                       std::string_view cat, Tick ts)
{
    if (!enabled_ || full())
        return;
    events_.push_back(
        Event{'i', t, ts, 0, 0, std::string(name), std::string(cat)});
}

void
TraceRecorder::counter(TrackId t, std::string_view name, Tick ts,
                       std::int64_t value)
{
    if (!enabled_ || full())
        return;
    events_.push_back(Event{'C', t, ts, 0, value, std::string(name), ""});
}

void
TraceRecorder::clear()
{
    events_.clear();
    tracks_.clear();
    dropped_ = 0;
}

void
TraceRecorder::writeJson(std::ostream &os) const
{
    os << "{\"traceEvents\":[";
    bool first = true;
    auto sep = [&]() {
        os << (first ? "\n" : ",\n");
        first = false;
    };
    for (const Track &t : tracks_) {
        if (t.id.tid == 1) {
            sep();
            os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":"
               << t.id.pid << ",\"tid\":0,\"args\":{\"name\":";
            writeJsonString(os, t.process);
            os << "}}";
        }
        sep();
        os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":"
           << t.id.pid << ",\"tid\":" << t.id.tid
           << ",\"args\":{\"name\":";
        writeJsonString(os, t.thread);
        os << "}}";
    }
    for (const Event &e : events_) {
        sep();
        os << "{\"name\":";
        writeJsonString(os, e.name);
        if (!e.cat.empty()) {
            os << ",\"cat\":";
            writeJsonString(os, e.cat);
        }
        os << ",\"ph\":\"" << e.ph << "\",\"pid\":" << e.track.pid
           << ",\"tid\":" << e.track.tid << ",\"ts\":";
        writeMicros(os, e.ts);
        switch (e.ph) {
        case 'X':
            os << ",\"dur\":";
            writeMicros(os, e.dur);
            break;
        case 'i':
            os << ",\"s\":\"t\"";
            break;
        case 'C':
            os << ",\"args\":{\"value\":" << e.value << '}';
            break;
        default:
            MTIA_UNREACHABLE("TraceRecorder: bad event phase");
        }
        os << '}';
    }
    os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

std::string
TraceRecorder::json() const
{
    std::ostringstream os;
    writeJson(os);
    return os.str();
}

void
TraceRecorder::writeFile(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    MTIA_CHECK(out) << ": cannot open trace file \"" << path
                    << "\" for writing";
    writeJson(out);
    out.flush();
    MTIA_CHECK(out) << ": failed writing trace file \"" << path << "\"";
}

} // namespace mtia::telemetry

#ifndef MTIA_TELEMETRY_TRACE_H_
#define MTIA_TELEMETRY_TRACE_H_

/**
 * @file
 * Sim-clock tracing in the Chrome trace-event JSON format (loadable in
 * Perfetto / chrome://tracing).
 *
 * Every timestamp is a DES Tick — never the wall clock — so identical
 * seeds produce byte-identical traces and the determinism linter stays
 * green. Tracks follow the trace-event process/thread model: the
 * "process" names a device (e.g. "shard0") and the "thread" names a
 * unit inside it (e.g. "jobs", "queue"), emitted as metadata events so
 * viewers group and label the rows.
 *
 * Cost model: every recording entry point checks a single bool first,
 * so a disabled recorder costs one predictable branch.
 */

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "sim/types.h"

namespace mtia::telemetry {

/** A (process, thread) trace row; cheap value handle. */
struct TrackId
{
    std::uint32_t pid = 0;
    std::uint32_t tid = 0;
};

/** Records trace events into memory; exports Chrome trace JSON. */
class TraceRecorder
{
  public:
    TraceRecorder() = default;

    /** Runtime switch; a disabled recorder records nothing. */
    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /**
     * Find-or-create the track for @p process / @p thread (device /
     * unit). Safe to call on a disabled recorder (returns a usable
     * id without recording anything else).
     */
    TrackId track(const std::string &process, const std::string &thread);

    /** Duration event spanning [start, end]. @pre start <= end. */
    void complete(TrackId t, std::string_view name, std::string_view cat,
                  Tick start, Tick end);

    /** Point-in-time event. */
    void instant(TrackId t, std::string_view name, std::string_view cat,
                 Tick ts);

    /** Counter sample (e.g. queue depth) at @p ts. */
    void counter(TrackId t, std::string_view name, Tick ts,
                 std::int64_t value);

    /** Recorded (non-metadata) events. */
    std::size_t size() const { return events_.size(); }
    bool empty() const { return events_.empty(); }

    /** Events discarded because the capacity cap was hit. */
    std::uint64_t dropped() const { return dropped_; }

    /**
     * Bound the recorder's memory: once @p max_events are held, new
     * events are counted in dropped() and discarded. 0 = unbounded.
     */
    void setCapacity(std::size_t max_events) { capacity_ = max_events; }

    /** Drop all events and tracks (capacity and enablement persist). */
    void clear();

    /**
     * Emit {"traceEvents":[...]} JSON: track-name metadata first, then
     * events in recording order. Deterministic byte-for-byte.
     */
    void writeJson(std::ostream &os) const;
    std::string json() const;

    /**
     * Write the JSON to @p path. An I/O failure fails an MTIA_CHECK
     * (ScopedCheckThrow makes it assertable).
     */
    void writeFile(const std::string &path) const;

  private:
    struct Event
    {
        char ph;           ///< 'X' complete, 'i' instant, 'C' counter
        TrackId track;
        Tick ts;
        Tick dur;          ///< 'X' only
        std::int64_t value; ///< 'C' only
        std::string name;
        std::string cat;
    };
    struct Track
    {
        std::string process;
        std::string thread;
        TrackId id;
    };

    bool full();

    bool enabled_ = true;
    std::size_t capacity_ = 0;
    std::uint64_t dropped_ = 0;
    std::vector<Event> events_;
    std::vector<Track> tracks_;
};

} // namespace mtia::telemetry

#endif // MTIA_TELEMETRY_TRACE_H_

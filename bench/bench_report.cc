#include "bench_report.h"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "core/check.h"
#include "telemetry/json.h"

namespace mtia::bench {

Report::Report(std::string name) : name_(std::move(name))
{
    MTIA_CHECK(!name_.empty()) << ": bench report needs a name";
}

Report::~Report()
{
    if (!written_)
        write();
}

void
Report::metric(const std::string &metric_name, double measured,
               const std::string &unit)
{
    entries_.push_back({metric_name, measured, 0.0, 0.0, false, unit});
}

void
Report::metric(const std::string &metric_name, double measured,
               double paper_lo, double paper_hi, const std::string &unit)
{
    MTIA_CHECK_LE(paper_lo, paper_hi)
        << ": inverted paper band for " << metric_name;
    entries_.push_back(
        {metric_name, measured, paper_lo, paper_hi, true, unit});
}

void
Report::wallClock(const std::string &clock_name, double value,
                  const std::string &unit)
{
    MTIA_CHECK(!clock_name.empty()) << ": wall_clock entry needs a name";
    wall_clock_.push_back({clock_name, value, 0.0, 0.0, false, unit});
}

void
Report::surrogate(const std::string &field, double value)
{
    MTIA_CHECK(!field.empty()) << ": surrogate block field needs a name";
    for (const Field &f : surrogate_fields_) {
        MTIA_CHECK(f.name != field)
            << ": surrogate block field " << field << " recorded twice";
    }
    surrogate_fields_.push_back({field, value});
}

std::string
Report::path() const
{
    const std::string file = "BENCH_" + name_ + ".json";
    const char *dir = std::getenv("MTIA_BENCH_REPORT_DIR");
    if (dir == nullptr || dir[0] == '\0')
        return file;
    std::string p(dir);
    if (p.back() != '/')
        p += '/';
    return p + file;
}

std::string
Report::json() const
{
    std::ostringstream os;
    os << "{\"schema\":\"mtia-bench-report-v2\",\"bench\":";
    telemetry::writeJsonString(os, name_);
    // One metrics / wall_clock array, one entry per line.
    const auto write_entries = [&os](const std::vector<Entry> &entries) {
        bool first = true;
        for (const Entry &e : entries) {
            os << (first ? "\n" : ",\n") << "{\"name\":";
            first = false;
            telemetry::writeJsonString(os, e.name);
            os << ",\"measured\":";
            telemetry::writeJsonDouble(os, e.measured);
            if (!e.unit.empty()) {
                os << ",\"unit\":";
                telemetry::writeJsonString(os, e.unit);
            }
            if (e.has_band) {
                os << ",\"paper_lo\":";
                telemetry::writeJsonDouble(os, e.paper_lo);
                os << ",\"paper_hi\":";
                telemetry::writeJsonDouble(os, e.paper_hi);
                const bool within =
                    e.measured >= e.paper_lo && e.measured <= e.paper_hi;
                os << ",\"within_band\":" << (within ? "true" : "false");
            }
            os << '}';
        }
        os << "\n]";
    };
    os << ",\"metrics\":[";
    write_entries(entries_);
    if (!wall_clock_.empty()) {
        os << ",\"wall_clock\":[";
        write_entries(wall_clock_);
    }
    if (!surrogate_fields_.empty()) {
        os << ",\"surrogate\":{";
        for (std::size_t i = 0; i < surrogate_fields_.size(); ++i) {
            os << (i ? "," : "");
            telemetry::writeJsonString(os, surrogate_fields_[i].name);
            os << ":";
            telemetry::writeJsonDouble(os, surrogate_fields_[i].value);
        }
        os << '}';
    }
    if (telemetry_ != nullptr) {
        std::string snap = telemetry_->json();
        while (!snap.empty() &&
               (snap.back() == '\n' || snap.back() == ' '))
            snap.pop_back();
        os << ",\"telemetry\":" << snap;
    }
    os << "}\n";
    return os.str();
}

void
Report::write()
{
    if (written_)
        return;
    written_ = true;
    const std::string p = path();
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    MTIA_CHECK(out.is_open()) << ": bench report: cannot open " << p;
    out << json();
    out.flush();
    MTIA_CHECK(out.good()) << ": bench report: write failed for " << p;
}

} // namespace mtia::bench

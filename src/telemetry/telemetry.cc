#include "telemetry/telemetry.h"

#include <fstream>

#include "core/check.h"

namespace mtia::telemetry {

void
Telemetry::exportFiles(const std::string &stem) const
{
    trace.writeFile(stem + ".trace.json");

    const std::string metrics_path = stem + ".metrics.json";
    std::ofstream out(metrics_path, std::ios::binary | std::ios::trunc);
    MTIA_CHECK(out) << ": cannot open metrics file \"" << metrics_path
                    << "\" for writing";
    metrics.writeJson(out);
    out.flush();
    MTIA_CHECK(out) << ": failed writing metrics file \"" << metrics_path
                    << "\"";
}

} // namespace mtia::telemetry

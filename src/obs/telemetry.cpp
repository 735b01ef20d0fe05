#include "obs/telemetry.hpp"

#include <fstream>

namespace weakkeys::obs {

Telemetry::Telemetry(bool tracing_enabled) : tracer_(tracing_enabled) {}

bool Telemetry::write_trace_files(const std::string& trace_path) {
  const auto write = [](const std::string& path, const std::string& body) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << body;
    out.flush();
    return static_cast<bool>(out);
  };
  const bool trace_ok = write(trace_path, chrome_trace_json(tracer_.events()));
  const bool metrics_ok =
      write(trace_path + ".metrics.json", metrics_.to_json());
  return trace_ok && metrics_ok;
}

}  // namespace weakkeys::obs

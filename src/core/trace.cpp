#include "core/trace.hpp"

#include <cstdio>

namespace tpio::coll {

namespace {

void append_event(std::string& out, const TraceEvent& e, int rank,
                  bool& first) {
  char buf[256];
  // Chrome tracing uses microsecond timestamps; virtual ns -> fractional us.
  std::snprintf(buf, sizeof(buf),
                "%s{\"name\":\"%s\",\"cat\":\"tpio\",\"ph\":\"X\","
                "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                "\"args\":{\"cycle\":%d}}",
                first ? "" : ",\n", e.name,
                static_cast<double>(e.begin) / 1e3,
                static_cast<double>(e.end - e.begin) / 1e3, rank, e.cycle);
  out += buf;
  first = false;
}

}  // namespace

std::string Trace::chrome_document(std::span<const Trace> per_rank) {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  for (std::size_t r = 0; r < per_rank.size(); ++r) {
    for (const TraceEvent& e : per_rank[r].events()) {
      append_event(out, e, static_cast<int>(r), first);
    }
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

}  // namespace tpio::coll

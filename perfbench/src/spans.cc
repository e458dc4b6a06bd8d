#include "spans.h"

#include <cstdio>

#include "util/hash_clock.h"

namespace perfbench {

SpanLog& Spans() {
  static SpanLog log;
  return log;
}

int SpanLog::Begin(const char* name, uint64_t request) {
  if (!enabled_) return -1;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(SpanRec{name, apq::NowNs(), 0,
                           open_.empty() ? -1 : open_.back(), request});
  open_.push_back(id);
  return id;
}

void SpanLog::End(int id) {
  if (id < 0) return;
  spans_[id].end_ns = apq::NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void SpanLog::Add(const char* name, double start_ns, double end_ns,
                  uint64_t request) {
  if (!enabled_) return;
  spans_.push_back(SpanRec{name, start_ns, end_ns,
                           open_.empty() ? -1 : open_.back(), request});
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRec& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%.0f,"
                 "\"end_ns\":%.0f,\"parent\":%d,\"request\":%llu}%s\n",
                 i, s.name.c_str(), s.start_ns, s.end_ns, s.parent,
                 static_cast<unsigned long long>(s.request),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench

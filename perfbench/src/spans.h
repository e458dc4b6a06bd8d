// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around each call into an engine layer (never inside src/): name
// ("<layer>.<call>"), start, end, parent span and request id. The recorder
// is single-threaded by design: every workload issues its calls from one
// thread (the closed-loop client or the open-loop generator).
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

class SpanLog {
 public:
  /// Recording starts disabled; while disabled, Begin/End/Add do nothing.
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span under the innermost open one; returns its index (-1 when
  /// recording is off).
  int Begin(const char* name, uint64_t request = 0);
  void End(int id);

  /// Records an already-finished span (an open-loop request, timed by the
  /// generator) under the innermost open span.
  void Add(const char* name, double start_ns, double end_ns, uint64_t request);

  const std::vector<SpanRec>& spans() const { return spans_; }

  /// Writes the spans as a JSON array; false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<SpanRec> spans_;
  std::vector<int> open_;
};

/// The process's span log.
SpanLog& Spans();

/// RAII span on the process log.
class Span {
 public:
  explicit Span(const char* name, uint64_t request = 0)
      : id_(Spans().Begin(name, request)) {}
  ~Span() { Spans().End(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_

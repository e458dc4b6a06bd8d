// Recent-query introspection ring + process-wide query-id allocation.
//
// Every Engine query (RunPlan / RunAdaptive) draws one monotonically
// increasing id from NextQueryId(); the id is threaded — via the
// thread-local QueryIdScope — into the trace spans (query / adaptive-run /
// execute span args), the adaptive lineage, and the per-query profile JSON,
// so a single id correlates every observability surface: grep the Chrome
// trace for a0 == id, curl /debug/profile/<id>, and read the same query.
//
// Completed (or failed) queries push a QueryRecord — summary scalars plus an
// immutable ProfileSource — into the fixed-capacity global QueryLog ring.
// The HTTP exporter (obs/http_exporter.h) serves the ring as /debug/queries
// and /debug/profile/<id>, and a valid APQ_PROFILE=<path> dumps it as one
// JSON document at process exit, no HTTP required.
//
// EXPLAIN-ANALYZE documents are built when they are read, not when the query
// finishes: most documents are evicted unread, and serializing a per-morsel
// profile costs a large share of a short query's wall time. A retained
// record holds the summary scalars and a shared pointer to a snapshot the
// engine took when the query finished (for the engine's snapshot: a copy of
// the run profile, the document scalars and, for adaptive queries, the
// lineage and outcome scalars — never plans or results). The snapshot is
// immutable, so FindProfile() and DumpJson() copy the pointers under the
// ring's mutex and serialize outside it: a reader never blocks Push().
// src/obs stays independent of the plan/profile layers — it sees snapshots
// only through the ProfileSource interface.
#ifndef APQ_OBS_QUERY_LOG_H_
#define APQ_OBS_QUERY_LOG_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace apq {
namespace obs {

/// Draws the next process-wide query id (1, 2, 3, ...). Ids are never
/// reused; 0 means "no query".
uint64_t NextQueryId();

/// The query id of the query currently executing on this thread (0 when no
/// QueryIdScope is active). Span sites read this to tag events.
uint64_t CurrentQueryId();

/// \brief RAII: installs `id` as this thread's current query id for the
/// scope's lifetime, restoring the previous value on exit (nesting-safe —
/// an engine invoked from inside another engine's callback keeps both ids
/// straight).
class QueryIdScope {
 public:
  explicit QueryIdScope(uint64_t id);
  ~QueryIdScope();
  QueryIdScope(const QueryIdScope&) = delete;
  QueryIdScope& operator=(const QueryIdScope&) = delete;

 private:
  uint64_t prev_;
};

/// \brief A retained query's EXPLAIN-ANALYZE document, built on demand.
/// Implementations are immutable once constructed, so Json() may run on any
/// thread, concurrently with other readers and with the engine.
class ProfileSource {
 public:
  ProfileSource() = default;
  virtual ~ProfileSource() = default;
  ProfileSource(const ProfileSource&) = delete;
  ProfileSource& operator=(const ProfileSource&) = delete;

  /// The full per-query JSON document (profile/profile_json.h schema).
  virtual std::string Json() const = 0;
};

/// \brief One finished query, as the introspection surface remembers it.
struct QueryRecord {
  uint64_t id = 0;
  std::string kind;          // "plan" | "adaptive"
  std::string status = "ok"; // "ok" | "error"
  std::string error;         // status message when status == "error"
  double wall_ns = 0;        // hardware wall-clock of the whole invocation
  double time_ns = 0;        // simulated response time (0 on error)
  uint64_t rows = 0;         // result cardinality
  int runs = 1;              // adaptive runs executed (1 for a plain plan)
  int mutations = 0;         // runs that mutated the plan
  uint64_t peak_bytes = 0;   // peak charged bytes (obs/resource_tracker.h)
  double cpu_ns = 0;         // summed task/operator execution time
  double queue_wait_ns = 0;  // summed scheduler queue-wait
  /// Builds the document served by /debug/profile/<id> and dumped by
  /// APQ_PROFILE; null when the record carries none (the summary stands in).
  std::shared_ptr<const ProfileSource> profile;
};

/// Default queries remembered by the ring; older records are evicted.
constexpr size_t kQueryLogCapacity = 64;

/// Parses an APQ_QUERY_LOG value: a plain decimal ring size in
/// [1, 1048576]. Returns 0 on anything else (empty, non-numeric, zero,
/// absurd) so the caller can warn and keep the default.
size_t ParseQueryLogCapacity(const char* s);

/// The ring capacity actually in effect: APQ_QUERY_LOG when set and valid
/// (parsed once, warn-once on bad values — hardened like
/// APQ_FORCE_MORSELS), kQueryLogCapacity otherwise.
size_t QueryLogCapacity();

/// \brief Fixed-capacity ring of recent queries, mutex-protected (pushes
/// happen once per query, reads once per scrape; the lock only guards
/// record copies, never serialization).
class QueryLog {
 public:
  QueryLog() = default;
  QueryLog(const QueryLog&) = delete;
  QueryLog& operator=(const QueryLog&) = delete;

  /// The process-wide log the engine records into.
  static QueryLog& Global();

  void Push(QueryRecord rec);

  /// Newest-first copies of the current records.
  std::vector<QueryRecord> Snapshot() const;

  /// Serializes record `id`'s profile document into `*json` (outside the
  /// ring's lock); false when evicted or never recorded.
  bool FindProfile(uint64_t id, std::string* json) const;

  /// {"queries":[{summary fields}...]} newest first — the /debug/queries
  /// body. Summaries exclude the (potentially large) profile documents.
  std::string SummaryJson() const;

  /// {"queries":[<full profile documents>]} oldest first — the APQ_PROFILE
  /// dump, schema-validated by tools/profile_check.py. Documents are
  /// serialized outside the ring's lock.
  std::string DumpJson() const;

  void Clear();  // tests

 private:
  mutable std::mutex mu_;
  std::deque<QueryRecord> recent_;  // oldest at front
};

/// The validated APQ_PROFILE target ("" = unset or rejected with a one-line
/// warning). Parsed once per process, hardened exactly like APQ_TRACE: an
/// unwritable path never aborts a query.
const std::string& ProfileEnvPath();

}  // namespace obs
}  // namespace apq

#endif  // APQ_OBS_QUERY_LOG_H_

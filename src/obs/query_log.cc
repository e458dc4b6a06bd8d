#include "obs/query_log.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "obs/trace.h"  // ValidateWritablePath

namespace apq {
namespace obs {

namespace {

std::atomic<uint64_t> g_next_query_id{1};
thread_local uint64_t t_current_query_id = 0;

// Minimal JSON string escaping for status/error texts (profile documents
// come from ProfileSource::Json() and are embedded verbatim).
void JsonEscapeInto(std::ostringstream& os, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << ' ';
    } else {
      os << c;
    }
  }
}

void AppendSummary(std::ostringstream& os, const QueryRecord& r) {
  os.precision(15);
  os << "{\"id\":" << r.id << ",\"kind\":\"";
  JsonEscapeInto(os, r.kind);
  os << "\",\"status\":\"";
  JsonEscapeInto(os, r.status);
  os << "\",\"error\":\"";
  JsonEscapeInto(os, r.error);
  os << "\",\"wall_ns\":" << r.wall_ns << ",\"time_ns\":" << r.time_ns
     << ",\"rows\":" << r.rows << ",\"runs\":" << r.runs
     << ",\"mutations\":" << r.mutations
     << ",\"peak_bytes\":" << r.peak_bytes << ",\"cpu_ns\":" << r.cpu_ns
     << ",\"queue_wait_ns\":" << r.queue_wait_ns << "}";
}

// The record's profile document. Engine records always carry a snapshot
// (even failed queries); a hand-pushed record without one falls back to its
// summary so the dump stays valid JSON.
std::string ProfileDocument(const QueryRecord& r) {
  if (r.profile != nullptr) return r.profile->Json();
  std::ostringstream os;
  AppendSummary(os, r);
  return os.str();
}

}  // namespace

uint64_t NextQueryId() {
  return g_next_query_id.fetch_add(1, std::memory_order_relaxed);
}

uint64_t CurrentQueryId() { return t_current_query_id; }

QueryIdScope::QueryIdScope(uint64_t id) : prev_(t_current_query_id) {
  t_current_query_id = id;
}

QueryIdScope::~QueryIdScope() { t_current_query_id = prev_; }

QueryLog& QueryLog::Global() {
  static QueryLog* g = new QueryLog();  // leaked: atexit dumps still read it
  return *g;
}

void QueryLog::Push(QueryRecord rec) {
  const size_t cap = QueryLogCapacity();
  // Evicted records are destroyed after the lock is released: dropping the
  // last reference to a snapshot frees its whole run profile.
  std::vector<QueryRecord> evicted;
  std::lock_guard<std::mutex> lock(mu_);
  recent_.push_back(std::move(rec));
  while (recent_.size() > cap) {
    evicted.push_back(std::move(recent_.front()));
    recent_.pop_front();
  }
}

std::vector<QueryRecord> QueryLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<QueryRecord>(recent_.rbegin(), recent_.rend());
}

bool QueryLog::FindProfile(uint64_t id, std::string* json) const {
  QueryRecord found;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = std::find_if(recent_.rbegin(), recent_.rend(),
                           [id](const QueryRecord& r) { return r.id == id; });
    if (it == recent_.rend()) return false;
    found = *it;
  }
  *json = ProfileDocument(found);
  return true;
}

std::string QueryLog::SummaryJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\"queries\":[";
  bool first = true;
  for (auto it = recent_.rbegin(); it != recent_.rend(); ++it) {
    if (!first) os << ",";
    AppendSummary(os, *it);
    first = false;
  }
  os << "]}";
  return os.str();
}

std::string QueryLog::DumpJson() const {
  std::vector<QueryRecord> records;
  {
    std::lock_guard<std::mutex> lock(mu_);
    records.assign(recent_.begin(), recent_.end());
  }
  std::ostringstream os;
  os << "{\"queries\":[";
  bool first = true;
  for (const QueryRecord& r : records) {
    if (!first) os << ",\n";
    os << ProfileDocument(r);
    first = false;
  }
  os << "]}";
  return os.str();
}

void QueryLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  recent_.clear();
}

size_t ParseQueryLogCapacity(const char* s) {
  if (s == nullptr || *s == '\0') return 0;
  for (const char* p = s; *p != '\0'; ++p) {
    if (!std::isdigit(static_cast<unsigned char>(*p))) return 0;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') return 0;
  if (v < 1 || v > (1ull << 20)) return 0;  // an absurd ring is a typo
  return static_cast<size_t>(v);
}

size_t QueryLogCapacity() {
  static const size_t cap = [] {
    const char* env = std::getenv("APQ_QUERY_LOG");
    if (env == nullptr || *env == '\0') return kQueryLogCapacity;
    const size_t parsed = ParseQueryLogCapacity(env);
    if (parsed == 0) {
      std::fprintf(stderr,
                   "apq: ignoring APQ_QUERY_LOG='%s' (want 1..1048576); "
                   "query log keeps %zu entries\n",
                   env, kQueryLogCapacity);
      return kQueryLogCapacity;
    }
    return parsed;
  }();
  return cap;
}

const std::string& ProfileEnvPath() {
  static const std::string path = [] {
    const char* v = std::getenv("APQ_PROFILE");
    if (v == nullptr || v[0] == '\0') return std::string();
    if (!ValidateWritablePath(v)) {
      std::fprintf(stderr,
                   "apq: ignoring APQ_PROFILE=\"%s\": cannot open for "
                   "writing; profile dump stays off\n",
                   v);
      return std::string();
    }
    return std::string(v);
  }();
  return path;
}

}  // namespace obs
}  // namespace apq

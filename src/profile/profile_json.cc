#include "profile/profile_json.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "exec/op_kind.h"

namespace apq {

namespace {

void EscapeInto(std::ostringstream& os, const std::string& s) {
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

std::ostringstream MakeStream() {
  std::ostringstream os;
  os.precision(15);
  return os;
}

// JSON has no NaN/Infinity literals; clamp the (never-expected) cases to 0
// rather than emitting an unparseable document.
double Finite(double v) { return std::isfinite(v) ? v : 0.0; }

// The parts of an AdaptiveOutcome the document reads: its scalars and
// lineage. Runs, plans, the GME profile (snapshotted separately as the
// document's profile) and the result are left empty.
AdaptiveOutcome DocumentPartOf(const AdaptiveOutcome& a) {
  AdaptiveOutcome out;
  out.lineage = a.lineage;
  out.query_id = a.query_id;
  out.serial_time_ns = a.serial_time_ns;
  out.serial_wall_ns = a.serial_wall_ns;
  out.gme_wall_ns = a.gme_wall_ns;
  out.gme_time_ns = a.gme_time_ns;
  out.gme_run = a.gme_run;
  out.best_time_ns = a.best_time_ns;
  out.best_run = a.best_run;
  out.total_runs = a.total_runs;
  out.skew_mutations = a.skew_mutations;
  return out;
}

// A QueryProfileDoc whose borrowed pointers aim at copies it owns.
class QueryProfileSnapshot final : public obs::ProfileSource {
 public:
  explicit QueryProfileSnapshot(const QueryProfileDoc& doc) : doc_(doc) {
    if (doc.profile != nullptr) {
      profile_ = *doc.profile;
      doc_.profile = &profile_;
    }
    if (doc.adaptive != nullptr) {
      adaptive_ = DocumentPartOf(*doc.adaptive);
      doc_.adaptive = &adaptive_;
    }
  }

  std::string Json() const override { return QueryProfileJson(doc_); }

 private:
  QueryProfileDoc doc_;
  RunProfile profile_;
  AdaptiveOutcome adaptive_;
};

}  // namespace

double MorselWallPercentileNs(const OpProfile& op, double q) {
  if (op.morsels.empty()) return 0.0;
  std::vector<double> walls;
  walls.reserve(op.morsels.size());
  for (const auto& m : op.morsels) walls.push_back(m.wall_ns);
  std::sort(walls.begin(), walls.end());
  const double rank = q * static_cast<double>(walls.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, walls.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return walls[lo] + (walls[hi] - walls[lo]) * frac;
}

std::string OpProfileJson(const OpProfile& op) {
  std::ostringstream os = MakeStream();
  os << "{\"node_id\":" << op.node_id << ",\"kind\":\"" << OpKindName(op.kind)
     << "\",\"label\":\"";
  EscapeInto(os, op.label);
  os << "\",\"work_ns\":" << Finite(op.work_ns)
     << ",\"start_ns\":" << Finite(op.start_ns)
     << ",\"end_ns\":" << Finite(op.end_ns)
     << ",\"wall_ns\":" << Finite(op.duration_ns())
     << ",\"core\":" << op.core << ",\"tuples_in\":" << op.tuples_in
     << ",\"tuples_out\":" << op.tuples_out
     << ",\"peak_bytes\":" << op.peak_bytes << ",\"cpu_ns\":" << op.cpu_ns
     << ",\"queue_wait_ns\":" << op.queue_wait_ns
     << ",\"num_morsels\":" << op.num_morsels
     << ",\"morsel_skew\":" << Finite(op.morsel_skew)
     << ",\"morsel_tuple_skew\":" << Finite(op.morsel_tuple_skew)
     << ",\"morsel_wall_p50_ns\":" << Finite(MorselWallPercentileNs(op, 0.50))
     << ",\"morsel_wall_p95_ns\":" << Finite(MorselWallPercentileNs(op, 0.95))
     << ",\"morsels\":[";
  bool first = true;
  for (const auto& m : op.morsels) {
    if (!first) os << ",";
    os << "{\"tuples_in\":" << m.tuples_in << ",\"tuples_out\":" << m.tuples_out
       << ",\"wall_ns\":" << Finite(m.wall_ns) << ",\"worker\":" << m.worker
       << ",\"domain_begin\":" << m.domain_begin
       << ",\"domain_end\":" << m.domain_end << "}";
    first = false;
  }
  os << "]}";
  return os.str();
}

std::string RunProfileJson(const RunProfile& profile) {
  std::ostringstream os = MakeStream();
  os << "{\"makespan_ns\":" << Finite(profile.makespan_ns)
     << ",\"utilization\":" << Finite(profile.utilization) << ",\"ops\":[";
  bool first = true;
  for (const auto& op : profile.ops) {
    if (!first) os << ",";
    os << OpProfileJson(op);
    first = false;
  }
  os << "]}";
  return os.str();
}

std::string AdaptiveLineageJson(const AdaptiveLineage& entry) {
  std::ostringstream os = MakeStream();
  os << "{\"run\":" << entry.run << ",\"time_ns\":" << Finite(entry.time_ns)
     << ",\"wall_ns\":" << Finite(entry.wall_ns)
     << ",\"max_morsel_skew\":" << Finite(entry.max_morsel_skew)
     << ",\"max_morsel_tuple_skew\":" << Finite(entry.max_morsel_tuple_skew)
     << ",\"skew_hint_ops\":" << entry.skew_hint_ops
     << ",\"victim\":" << entry.victim << ",\"action\":\"";
  EscapeInto(os, entry.action);
  os << "\",\"skew_aware\":" << (entry.skew_aware ? "true" : "false")
     << ",\"split_rows\":[";
  bool first = true;
  for (uint64_t row : entry.split_rows) {
    if (!first) os << ",";
    os << row;
    first = false;
  }
  os << "]}";
  return os.str();
}

std::string QueryProfileJson(const QueryProfileDoc& doc) {
  std::ostringstream os = MakeStream();
  int runs = 1;
  int mutations = 0;
  if (doc.adaptive != nullptr) {
    runs = doc.adaptive->total_runs;
    for (const auto& entry : doc.adaptive->lineage) {
      if (entry.action != "none") ++mutations;
    }
  }
  os << "{\"query_id\":" << doc.query_id << ",\"kind\":\"";
  EscapeInto(os, doc.kind);
  os << "\",\"status\":\"";
  EscapeInto(os, doc.status);
  os << "\",\"error\":\"";
  EscapeInto(os, doc.error);
  // parallel_efficiency = cpu / (wall * workers): 1.0 = every worker busy
  // for the whole query; 0 when the denominator is unknown.
  const double denom = doc.wall_ns * static_cast<double>(doc.workers);
  const double efficiency = denom > 0 ? doc.cpu_ns / denom : 0.0;
  os << "\",\"wall_ns\":" << Finite(doc.wall_ns)
     << ",\"time_ns\":" << Finite(doc.time_ns) << ",\"rows\":" << doc.rows
     << ",\"runs\":" << runs << ",\"mutations\":" << mutations
     << ",\"peak_bytes\":" << doc.peak_bytes
     << ",\"cpu_ns\":" << Finite(doc.cpu_ns)
     << ",\"queue_wait_ns\":" << Finite(doc.queue_wait_ns)
     << ",\"workers\":" << doc.workers
     << ",\"parallel_efficiency\":" << Finite(efficiency)
     << ",\"adaptive\":";
  if (doc.adaptive == nullptr) {
    os << "null";
  } else {
    const AdaptiveOutcome& a = *doc.adaptive;
    os << "{\"serial_time_ns\":" << Finite(a.serial_time_ns)
       << ",\"gme_time_ns\":" << Finite(a.gme_time_ns)
       << ",\"gme_run\":" << a.gme_run << ",\"best_run\":" << a.best_run
       << ",\"best_time_ns\":" << Finite(a.best_time_ns)
       << ",\"total_runs\":" << a.total_runs
       << ",\"skew_mutations\":" << a.skew_mutations
       << ",\"speedup\":" << Finite(a.Speedup()) << "}";
  }
  os << ",\"lineage\":[";
  if (doc.adaptive != nullptr) {
    bool first = true;
    for (const auto& entry : doc.adaptive->lineage) {
      if (!first) os << ",";
      os << AdaptiveLineageJson(entry);
      first = false;
    }
  }
  os << "],\"profile\":";
  if (doc.profile == nullptr) {
    os << "null";
  } else {
    os << RunProfileJson(*doc.profile);
  }
  os << "}";
  return os.str();
}

std::shared_ptr<const obs::ProfileSource> SnapshotQueryProfile(
    const QueryProfileDoc& doc) {
  return std::make_shared<const QueryProfileSnapshot>(doc);
}

}  // namespace apq

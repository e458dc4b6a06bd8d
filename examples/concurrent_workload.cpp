// Concurrent workload (paper §4.2.3/§4.2.5): adaptive plans use fewer
// partitions and less of the machine, which pays off when 32 clients compete
// for it.
//
//   $ ./example_concurrent_workload
//
// Watch it live: start with the HTTP introspection endpoint up and poll the
// recent-query ring from another terminal while the clients run —
//
//   $ APQ_HTTP=9417 ./example_concurrent_workload &
//   $ watch -n 0.5 'curl -s http://127.0.0.1:9417/debug/queries'
//   $ curl -s http://127.0.0.1:9417/metrics | grep apq_sched
//   $ curl -s http://127.0.0.1:9417/debug/profile/3   # full EXPLAIN-ANALYZE
//
// Every engine below shares one process-wide query log, so the adaptive and
// per-client serial queries all appear in /debug/queries, newest first.
#include <cstdio>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "sched/morsel_scheduler.h"
#include "workload/tpch.h"

using namespace apq;

// Hardware-truth counterpart of the simulated contention study: several
// engines run queries concurrently, all multiplexing ONE morsel-scheduler
// worker fleet instead of spawning a pool per query (the production
// configuration for heavy multi-query traffic).
static void SharedSchedulerDemo(const std::shared_ptr<Catalog>& catalog) {
  auto sched = std::make_shared<MorselScheduler>();  // hardware-sized fleet
  constexpr int kClients = 4;

  std::vector<std::unique_ptr<Engine>> engines;
  for (int c = 0; c < kClients; ++c) {
    EngineConfig cfg = EngineConfig::WithSim(SimConfig::TwoSocket32());
    cfg.morsel_rows = 8192;
    cfg.morsel_scheduler = sched;  // every engine shares the one fleet
    engines.push_back(std::make_unique<Engine>(cfg));
  }

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto q = c % 2 == 0 ? Tpch::Q6(*catalog)
                          : Tpch::Query(*catalog, "Q14");
      APQ_CHECK(q.ok());
      auto r = engines[c]->RunSerial(q.ValueOrDie());
      APQ_CHECK(r.ok());
    });
  }
  for (auto& t : clients) t.join();

  std::printf("\nmorsel scheduler shared by %d concurrent engines:\n",
              kClients);
  std::printf("  workers %d, morsels executed %llu (callers ran %llu)\n",
              sched->num_workers(),
              static_cast<unsigned long long>(sched->total_tasks()),
              static_cast<unsigned long long>(sched->caller_tasks()));
  auto stats = sched->worker_stats();
  for (size_t w = 0; w < stats.size(); ++w) {
    std::printf("  worker %zu: %llu morsels (%llu stolen)\n", w,
                static_cast<unsigned long long>(stats[w].tasks),
                static_cast<unsigned long long>(stats[w].steals));
  }
}

int main() {
  TpchConfig cfg;
  cfg.lineitem_rows = 60'000;
  auto catalog = Tpch::Generate(cfg);
  Engine engine(EngineConfig::WithSim(SimConfig::TwoSocket32()));

  auto q6 = Tpch::Q6(*catalog);
  APQ_CHECK(q6.ok());

  // A 32-client background batch of heuristically parallelized queries.
  auto hp_plan = engine.HeuristicPlan(q6.ValueOrDie(), 32);
  APQ_CHECK(hp_plan.ok());
  std::vector<const QueryPlan*> mix = {&hp_plan.ValueOrDie()};
  auto bg = engine.BuildBackground(mix, 32, /*spacing_ns=*/0.3e6);
  APQ_CHECK(bg.ok());

  // Heuristic vs adaptive, isolated and under load.
  auto hp_iso = engine.RunHeuristic(q6.ValueOrDie());
  auto ap_iso = engine.RunAdaptive(q6.ValueOrDie());
  auto hp_conc = engine.RunHeuristic(q6.ValueOrDie(), -1, bg.ValueOrDie());
  auto ap_conc = engine.RunAdaptive(q6.ValueOrDie(), bg.ValueOrDie());
  APQ_CHECK(hp_iso.ok() && ap_iso.ok() && hp_conc.ok() && ap_conc.ok());

  std::printf("TPC-H Q6, 32 simulated hardware threads\n\n");
  std::printf("                 isolated    32-client concurrent\n");
  std::printf("heuristic (32p)  %7.3f ms  %7.3f ms\n",
              hp_iso.ValueOrDie().time_ns / 1e6,
              hp_conc.ValueOrDie().time_ns / 1e6);
  std::printf("adaptive         %7.3f ms  %7.3f ms\n",
              ap_iso.ValueOrDie().gme_time_ns / 1e6,
              ap_conc.ValueOrDie().gme_time_ns / 1e6);

  PlanStats iso_stats = ap_iso.ValueOrDie().gme_plan.Stats();
  PlanStats conc_stats = ap_conc.ValueOrDie().gme_plan.Stats();
  std::printf(
      "\nadaptive plan shape:    isolated %d nodes, under load %d nodes\n",
      iso_stats.num_nodes, conc_stats.num_nodes);
  std::printf(
      "utilization (isolated): heuristic %.0f%%, adaptive %.0f%%\n",
      hp_iso.ValueOrDie().utilization * 100,
      ap_iso.ValueOrDie().gme_profile.utilization * 100);
  std::printf(
      "\nThe adaptive plan was tuned by execution feedback *under load*, so\n"
      "its degree of parallelism reflects the resources actually available\n"
      "(paper: 'adaptive parallelized plans are resource contention aware').\n");

  SharedSchedulerDemo(catalog);
  return 0;
}

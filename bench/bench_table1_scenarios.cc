// Table 1: Single Failure Scenarios — the full matrix, reproduced row by
// row: failure class x location, with the observed symptom (detection
// event) and recovery action, exactly as the paper tabulates them.
//
// Each row is an independent world; the matrix runs through
// harness::SweepRunner with results in row order regardless of thread count.
#include "bench/bench_util.h"

namespace sttcp::bench {
namespace {


struct Row {
  DownloadSpec::FailureKind kind;
  const char* row;
  const char* failure;
  const char* location;
  const char* paper_recovery;
};

void run(JsonSink& json) {
  print_header("Table 1: single failure scenarios",
               "paper Table 1 (all rows; symptom observed & recovery action)");
  const SweepRunner pool;

  using FK = DownloadSpec::FailureKind;
  const Row rows[] = {
      {FK::kHwCrashPrimary, "1", "HW/OS crash", "primary",
       "backup takes over, shuts primary down"},
      {FK::kHwCrashBackup, "1", "HW/OS crash", "backup",
       "primary non-FT, shuts backup down"},
      {FK::kAppHangPrimary, "2", "app failure (no FIN/RST)", "primary",
       "backup takes over, shuts primary down"},
      {FK::kAppHangBackup, "2", "app failure (no FIN/RST)", "backup",
       "primary non-FT, shuts backup down"},
      {FK::kAppFinPrimary, "3", "app failure (FIN generated)", "primary",
       "FIN suppressed; backup takes over"},
      {FK::kAppFinBackup, "3", "app failure (FIN generated)", "backup",
       "FIN discarded; primary non-FT"},
      {FK::kNicPrimary, "4", "NIC or cable failure", "primary",
       "backup takes over, shuts primary down"},
      {FK::kNicBackup, "4", "NIC or cable failure", "backup",
       "primary non-FT, shuts backup down"},
  };

  const auto runs = pool.map(std::size(rows), [&rows](std::size_t i) {
    ScenarioConfig cfg;
    cfg.sttcp.max_delay_fin = sim::Duration::seconds(30);
    DownloadSpec spec;
    spec.file_size = 60'000'000;
    spec.failure = rows[i].kind;
    spec.crash_at = sim::Duration::millis(1500);
    return run_download(std::move(cfg), spec);
  });

  Table t({"row", "failure", "location", "symptom (detection)", "recovery",
           "detect (ms)", "client ok"});
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Row& row = rows[i];
    const DownloadRun& r = runs[i];
    std::string symptom;
    if (r.detection_ms >= 0) {
      symptom = r.outcome == "takeover" ? "backup convicted primary"
                                        : "primary convicted backup";
    }
    t.row(row.row, row.failure, row.location, symptom,
          r.outcome + std::string(" (paper: ") + row.paper_recovery + ")",
          r.detection_ms, ok(r.complete && !r.corrupt));
  }
  t.print();
  json.table(t, "table1");

  // Row 5 needs a bidirectional workload (the backup recovers missed CLIENT
  // bytes); run it separately with the record-stream service.
  std::cout << "\n-- row 5: temporary network failure --\n\n";
  {
    struct Row5Run {
      std::size_t requests = 0;
      std::size_t served = 0;
      std::size_t injected = 0;
      bool failover = false;
      bool intact = false;
    };
    const auto runs5 = pool.map(2, [](std::size_t i) {
      const bool at_backup = i == 0;
      ScenarioConfig cfg;
      auto topo = build_figure2(cfg);
      Cell& cell = topo->cell();
      Topology::HostEntry& client_host = *topo->host_by_name("client");
      StreamServer p_app(cell.primary_stack(), cell.service_port(), 2000);
      StreamServer b_app(cell.backup_stack(), cell.service_port(), 2000);
      StreamClient client(*client_host.stack, client_host.ip, cell.connect_addr(),
                          2000, 8);
      client.start();
      if (at_backup) {
        topo->inject(harness::Fault::FrameLoss(harness::Node::kBackup, 10)
                         .at(sim::Duration::millis(300)));
      } else {
        topo->world().loop().schedule_after(sim::Duration::millis(300),
                                            [&cell] { cell.primary_link().drop_next(10); });
      }
      topo->run_for(sim::Duration::seconds(20));
      const auto& tr = topo->world().trace();
      return Row5Run{tr.count("missed_bytes_request"),
                     tr.count("missed_bytes_served"),
                     tr.count("missed_bytes_injected"),
                     tr.count("takeover") + tr.count("non_ft_mode") != 0,
                     !client.corrupt() && client.records_completed() > 1000};
    });
    Table t5({"location", "mechanism", "requests", "served", "injected",
              "failover", "stream intact"});
    for (std::size_t i = 0; i < runs5.size(); ++i) {
      const bool at_backup = i == 0;
      const Row5Run& r = runs5[i];
      t5.row(at_backup ? "backup" : "primary",
             at_backup ? "missed bytes fetched from primary's hold buffer"
                       : "normal TCP retransmission (client resends)",
             r.requests, r.served, r.injected, r.failover ? "YES?" : "none",
             ok(r.intact));
    }
    t5.print();
    json.table(t5, "table1_row5");
  }

  // Beyond Table 1: the replication-degree axis. The paper's pair (N=2)
  // masks any SINGLE failure; 1+N groups extend the same matrix to
  // SIMULTANEOUS double failures. Each row is one world: a 25 MB transfer,
  // both victims crashing at the same instant, the verdict read off the
  // trace. The N=2 double-failure row is the honest negative control — a
  // pair cannot mask it, and the table says so.
  std::cout << "\n-- replication degree: simultaneous double failures --\n\n";
  {
    using harness::Node;
    struct DegreeCase {
      int members;                      // group size N (1 leader + N-1 backups)
      const char* fault;
      std::vector<Node> crash;
      const char* expected;
    };
    const DegreeCase cases[] = {
        {2, "leader", {Node::kPrimary}, "backup takes over"},
        {2, "leader + backup", {Node::kPrimary, Node::kBackup},
         "total outage (pair limit)"},
        {3, "leader", {Node::kPrimary}, "rank-1 promotes"},
        {3, "leader + rank-1", {Node::kPrimary, Node::kBackup},
         "rank-2 promotes"},
        {3, "rank-1 + rank-2", {Node::kBackup, Node::kBackup2},
         "leader unaffected"},
        {4, "leader", {Node::kPrimary}, "rank-1 promotes"},
        {4, "leader + rank-1", {Node::kPrimary, Node::kBackup},
         "rank-2 promotes"},
        {4, "rank-1 + rank-2", {Node::kBackup, Node::kBackup2},
         "leader unaffected"},
    };

    struct DegreeRun {
      bool complete = false;
      bool corrupt = true;
      double detect_ms = -1;
      double recover_ms = -1;
      std::string winner = "-";
      std::uint64_t promotions = 0;
      std::uint64_t non_ft = 0;
    };
    const sim::Duration crash_at = sim::Duration::millis(800);
    const auto druns = pool.map(std::size(cases), [&cases, crash_at](std::size_t i) {
      const DegreeCase& c = cases[i];
      constexpr std::uint64_t kFile = 25'000'000;
      ScenarioConfig cfg;
      cfg.extra_backups = c.members - 2;
      cfg.sttcp.max_delay_fin = sim::Duration::seconds(30);
      auto topo = build_figure2(cfg);
      Cell& cell = topo->cell();
      Topology::HostEntry& client_host = *topo->host_by_name("client");
      FileServer p_app(cell.primary_stack(), cell.service_port(), kFile);
      std::vector<std::unique_ptr<FileServer>> b_apps;
      for (int b = 0; b < cell.backup_count(); ++b) {
        b_apps.push_back(std::make_unique<FileServer>(
            cell.backup_stack(b), cell.service_port(), kFile));
      }
      DownloadClient::Options opt;
      opt.expected_bytes = kFile;
      DownloadClient client(*client_host.stack, client_host.ip,
                            {cell.connect_addr()}, opt);
      client.start();
      for (const Node n : c.crash) topo->inject(harness::Fault::Crash(n).at(crash_at));
      topo->run_for(sim::Duration::seconds(60));

      DegreeRun r;
      r.complete = client.complete();
      r.corrupt = client.corrupt();
      const auto& tr = topo->world().trace();
      const sim::SimTime t0 = sim::SimTime::zero() + crash_at;
      for (const char* ev : {"member_convicted", "peer_dead"}) {
        if (auto t = tr.first_time(ev)) {
          r.detect_ms = (*t - t0).to_millis();
          break;
        }
      }
      for (const char* ev : {"promoted", "takeover"}) {
        if (auto t = tr.first_time(ev)) {
          r.recover_ms = (*t - t0).to_millis();
          break;
        }
      }
      for (const sim::TraceEntry& e : tr.entries()) {
        if (e.event == "promoted") {
          r.winner = e.component;
          break;
        }
        // Pair mode has no promotion protocol: a takeover IS the backup.
        if (e.event == "takeover" && r.winner == "-") r.winner = "backup";
      }
      r.promotions = tr.count("promoted");
      r.non_ft = tr.count("non_ft_mode");
      return r;
    });

    Table td({"N", "fault (simultaneous)", "expected", "masked", "detect (ms)",
              "recover (ms)", "new leader", "promotions"});
    for (std::size_t i = 0; i < druns.size(); ++i) {
      const DegreeCase& c = cases[i];
      const DegreeRun& r = druns[i];
      const bool masked = r.complete && !r.corrupt;
      td.row(c.members, c.fault, c.expected, masked ? "yes" : "NO",
             r.detect_ms, r.recover_ms, r.winner, r.promotions);
    }
    td.print();
    json.table(td, "replication_degree");
    std::cout << "\nExpected shape: every single failure masked at every N;\n"
                 "double failures masked from N=3 up (rank order decides the\n"
                 "winner); the N=2 double-failure row is the negative control\n"
                 "and MUST read NO.\n";
  }

  std::cout << "\nExpected shape (paper Table 1): every row detected; primary\n"
               "failures -> takeover + STONITH; backup failures -> primary\n"
               "non-FT + STONITH; temporary loss -> no failover at all.\n";
}

}  // namespace
}  // namespace sttcp::bench

int main(int argc, char** argv) {
  sttcp::bench::JsonSink json(argc, argv);
  sttcp::bench::run(json);
  return 0;
}

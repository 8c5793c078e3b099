// Allocation guard: heap allocations per executed event on a fixed-seed
// churn world.
//
// Wall-clock throughput is noisy on a shared host; the number of calls to
// global operator new for a fixed (seed, config) run is exact. This binary
// replaces global operator new with a counting wrapper around malloc, runs
// a small closed-loop churn on the Figure-2 pair (gigabit links, a primary
// crash mid-generation) and bounds allocations per executed event. A change
// that puts a heap allocation back on a per-event path (a std::function
// capture that outgrows the small-buffer, a per-call wrapper lambda, a
// deque-backed byte queue) moves this ratio by a visible step.
//
// It is its own executable because replacing operator new is global.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "app/server.h"
#include "harness/topology.h"
#include "harness/workload.h"

namespace {
std::uint64_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sttcp::harness {
namespace {

// Measured with this configuration: 4.815 allocations per event before the
// contiguous byte FIFO, slot-held link frames and owning one-shot timers;
// 2.491 with all three. Reverting any one of them alone gives 2.978 (the
// per-arm timer wrapper), 3.310 (frames captured in the delivery event) or
// 3.368 (deque byte queues). Replacing the hierarchical timer wheel, which
// regrew a bucket's vector on every cascade, with the 4-ary heap gives
// 425,237 allocations over the same 180,388 events, 2.357; the bound sits
// between that and the wheel's 2.491, so every one of those reverts fails.
constexpr double kMaxAllocationsPerEvent = 2.42;

struct Measurement {
  std::uint64_t allocations = 0;
  std::uint64_t events = 0;
  std::uint64_t completed = 0;
};

Measurement run_churn_window() {
  ScenarioConfig cfg;
  cfg.seed = 101;
  cfg.link_bandwidth_bps = 1'000'000'000;
  cfg.sttcp.hold_buffer_capacity = 32 * 1024 * 1024;
  cfg.sttcp.serial_max_records = 32;
  auto topo = build_figure2(cfg);
  Cell& cell = topo->cell();
  app::SizedServer p_app(cell.primary_stack(), cell.service_port());
  app::SizedServer b_app(cell.backup_stack(), cell.service_port());

  WorkloadConfig wc;
  wc.arrivals = WorkloadConfig::Arrivals::kClosedLoop;
  wc.closed_clients = 256;
  wc.max_concurrent = 256;
  wc.think_mean = sim::Duration::millis(20);
  wc.flow_min_bytes = 4 * 1024;
  wc.flow_max_bytes = 64 * 1024;
  wc.duration = sim::Duration::millis(600);
  Topology::HostEntry& client = *topo->host_by_name("client");
  Workload wl(topo->world(), *client.stack, client.ip, cell.connect_addr(), wc);
  topo->inject(Fault::Crash(Node::kPrimary).at(sim::Duration::millis(400)));
  wl.start();

  // Warm up: connection tables, slot vectors and histogram buckets reach
  // their working size before the counted window opens.
  topo->run_for(sim::Duration::millis(200));
  sim::EventLoop& loop = topo->world().loop();
  const std::uint64_t allocs0 = g_allocations;
  const std::uint64_t events0 = loop.events_executed();
  topo->run_for(sim::Duration::millis(300));
  Measurement m;
  m.allocations = g_allocations - allocs0;
  m.events = loop.events_executed() - events0;
  m.completed = wl.stats().completed;
  return m;
}

TEST(AllocGuardTest, ChurnAllocationsPerEventStayBounded) {
  const Measurement m = run_churn_window();
  ASSERT_GT(m.events, 100'000u);
  ASSERT_GT(m.completed, 1'000u);
  const double per_event =
      static_cast<double>(m.allocations) / static_cast<double>(m.events);
  std::printf("churn window: %llu allocations / %llu events = %.3f per event\n",
              static_cast<unsigned long long>(m.allocations),
              static_cast<unsigned long long>(m.events), per_event);
  EXPECT_LE(per_event, kMaxAllocationsPerEvent);
}

// The count is a property of (seed, config), not of the host: a second run
// in the same process allocates exactly as often.
TEST(AllocGuardTest, CountRepeatsExactly) {
  const Measurement a = run_churn_window();
  const Measurement b = run_churn_window();
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.allocations, b.allocations);
}

}  // namespace
}  // namespace sttcp::harness

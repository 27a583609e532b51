// ABL-FIT — ablation of the §3.2 #2 design choice: "The library uses an
// address-ordered first fit allocator, which shows best performance
// values due to a good locality (see Wilson et al.)". Compares
// address-ordered first fit (the paper's choice) against best fit and an
// unordered LIFO first fit on the Abinit-like trace, reporting cost,
// fragmentation (free-list block count / mapped bytes) and the locality
// proxy the paper cares about: how tightly the live blocks pack into
// hugepages.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "ibp/hugepage/heap.hpp"
#include "ibp/workloads/alloc_trace.hpp"

using namespace ibp;

namespace {

struct Run {
  TimePs cost = 0;
  std::uint64_t scan_steps = 0;
  std::uint64_t free_blocks = 0;
  std::uint64_t mapped = 0;
  std::uint64_t live_peak = 0;
};

Run replay(hugepage::FitPolicy fit,
           const std::vector<workloads::TraceOp>& ops) {
  mem::PhysicalMemory phys(1 * kGiB, 512, 7);
  mem::HugeTlbFs fs(&phys, 512, 2);
  mem::AddressSpace space(&phys, &fs);
  hugepage::HugeHeapConfig cfg;
  cfg.fit = fit;
  hugepage::HugeHeap heap(space, fs, cfg);

  std::vector<VirtAddr> slots(workloads::trace_slot_count());
  Run r;
  for (const auto& op : ops) {
    if (op.kind == workloads::TraceOp::Kind::Malloc) {
      const auto res = heap.allocate(op.size);
      IBP_CHECK(res.addr != 0);
      slots[op.slot] = res.addr;
      r.cost += res.cost;
    } else {
      r.cost += heap.deallocate(slots[op.slot]).cost;
    }
  }
  heap.check_invariants();
  r.scan_steps = heap.stats().scan_steps;
  r.free_blocks = heap.free_blocks();
  r.mapped = heap.stats().bytes_mapped;
  r.live_peak = heap.stats().bytes_live_peak;
  return r;
}

/// Replay the trace through the full library, preloaded (the paper's
/// 32 KB routing) or not (everything on libc's small pages).
TimePs replay_library(bool preloaded,
                      const std::vector<workloads::TraceOp>& ops) {
  mem::PhysicalMemory phys(1 * kGiB, 512, 7);
  mem::HugeTlbFs fs(&phys, 512, 2);
  mem::AddressSpace space(&phys, &fs);
  hugepage::LibraryConfig lcfg;
  lcfg.enabled = preloaded;
  hugepage::Library lib(space, fs, lcfg);

  std::vector<VirtAddr> slots(workloads::trace_slot_count());
  TimePs cost = 0;
  for (const auto& op : ops) {
    if (op.kind == workloads::TraceOp::Kind::Malloc) {
      const auto res = lib.malloc(op.size);
      IBP_CHECK(res.addr != 0);
      slots[op.slot] = res.addr;
      cost += res.cost;
    } else {
      cost += lib.free(slots[op.slot]).cost;
    }
  }
  lib.check_invariants();
  return cost;
}

}  // namespace

int main() {
  std::printf("ABL-FIT: fit-policy ablation on the Abinit-like trace\n\n");
  workloads::TraceConfig tcfg;
  tcfg.odd_fraction = 0.25;  // mixed sizes stress placement quality
  const auto ops = workloads::make_abinit_trace(tcfg);

  TextTable t({"policy", "cost [us]", "scan steps", "free blocks (end)",
               "hugepages mapped", "peak live MB"});
  const struct {
    hugepage::FitPolicy fit;
    const char* name;
  } policies[] = {
      {hugepage::FitPolicy::AddressOrderedFirstFit,
       "address-ordered first fit (paper)"},
      {hugepage::FitPolicy::BestFit, "best fit"},
      {hugepage::FitPolicy::LifoFirstFit, "LIFO first fit"},
  };
  for (const auto& p : policies) {
    const Run r = replay(p.fit, ops);
    t.add_row(p.name, ps_to_us(r.cost), r.scan_steps, r.free_blocks,
              r.mapped / kHugePageSize,
              static_cast<double>(r.live_peak) / (1 << 20));
  }
  t.print();
  std::printf("\n(lower mapped-hugepage count at equal peak = better "
              "locality: buffers share hugepages, the paper's advantage "
              "over libhugepagealloc)\n");

  std::printf("\ntrace cost by placement policy (full library, policy "
              "decides backing/chunking):\n\n");
  const TimePs paper = replay_library(true, ops);
  const TimePs baseline = replay_library(false, ops);
  char rel[32];
  std::snprintf(rel, sizeof rel, "%+.1f %%",
                bench::pct_change(static_cast<double>(paper),
                                  static_cast<double>(baseline)));
  TextTable pt({"placement policy", "trace cost [us]", "vs paper-default"});
  pt.add_row("paper-default", ps_to_us(paper), "-");
  pt.add_row("small-page-baseline", ps_to_us(baseline), rel);
  pt.print();
  return 0;
}

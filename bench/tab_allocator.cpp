// TAB-ALLOC — the §2/§3.2 allocator claims: on an Abinit-like
// allocation trace, the paper's hugepage allocator (address-ordered first
// fit, 4 KB chunks, external metadata, no coalescing on free) beats the
// libc-style general-purpose path (in-band headers, eager coalescing,
// mmap for large blocks) by up to ~10x, because same-size alloc/free
// churn makes the latter coalesce and re-split continuously — and every
// mmap-threshold allocation pays syscall + page-fault costs.
//
// Measured in the simulator's virtual-time cost model.

#include <cstdio>
#include <vector>

#include "ibp/hugepage/library.hpp"
#include "ibp/mem/address_space.hpp"
#include "ibp/workloads/alloc_trace.hpp"

using namespace ibp;

namespace {

struct World {
  mem::PhysicalMemory phys{1 * kGiB, 512, 7};
  mem::HugeTlbFs fs{&phys, 512, 2};
  mem::AddressSpace space{&phys, &fs};
};

void replay(hugepage::Library& lib,
            const std::vector<workloads::TraceOp>& ops,
            std::vector<VirtAddr>& slots, TimePs* vcost) {
  for (const auto& op : ops) {
    if (op.kind == workloads::TraceOp::Kind::Malloc) {
      const auto r = lib.malloc(op.size);
      slots[op.slot] = r.addr;
      if (vcost) *vcost += r.cost;
    } else {
      const auto r = lib.free(slots[op.slot]);
      if (vcost) *vcost += r.cost;
    }
  }
}

hugepage::LibraryConfig lib_config(bool enabled) {
  hugepage::LibraryConfig cfg;
  cfg.enabled = enabled;
  return cfg;
}

}  // namespace

int main() {
  const auto ops = workloads::make_abinit_trace();
  std::printf("TAB-ALLOC: Abinit-like trace, %zu allocator operations\n\n",
              ops.size());
  TimePs huge_cost = 0, libc_cost = 0;
  std::uint64_t huge_steps = 0, libc_steps = 0, libc_coalesces = 0;
  {
    World w;
    hugepage::Library lib(w.space, w.fs, lib_config(true));
    std::vector<VirtAddr> slots(workloads::trace_slot_count());
    replay(lib, ops, slots, &huge_cost);
    huge_steps = lib.huge_heap().stats().scan_steps;
  }
  {
    World w;
    hugepage::Library lib(w.space, w.fs, lib_config(false));
    std::vector<VirtAddr> slots(workloads::trace_slot_count());
    replay(lib, ops, slots, &libc_cost);
    libc_steps = lib.libc_heap().stats().scan_steps;
    libc_coalesces = lib.libc_heap().stats().coalesces;
  }
  std::printf("virtual-time cost (includes OS work: faults, syscalls):\n"
              "  hugepage library %.1f us, libc-style %.1f us "
              "(%.1fx faster; paper: up to 10x)\n",
              ps_to_us(huge_cost), ps_to_us(libc_cost),
              static_cast<double>(libc_cost) /
                  static_cast<double>(huge_cost));
  std::printf("free-list scan steps: %llu vs %llu; libc coalesce ops: "
              "%llu\n\n",
              static_cast<unsigned long long>(huge_steps),
              static_cast<unsigned long long>(libc_steps),
              static_cast<unsigned long long>(libc_coalesces));
  return 0;
}

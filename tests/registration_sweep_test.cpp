// Parameterized property sweep over the registration cost model: for any
// buffer size and page/driver combination, cost decomposes exactly into
// base + pin * npages + (build+ship) * ntrans, and the hugepage/4K cost
// ratio shrinks monotonically toward the paper's ~1 % as buffers grow.

#include <gtest/gtest.h>

#include <type_traits>

#include "ibp/hca/adapter.hpp"
#include "ibp/platform/platform.hpp"

namespace ibp::hca {
namespace {

// gtest names each case after a byte dump of this struct, so every byte
// must be defined: padding would dump whatever the stack held. The gap
// after `patched` is spelled out as a zeroed member.
struct RegCase {
  std::uint64_t bytes;
  mem::PageKind kind;
  bool patched;  // ship native translations for hugepage mappings
  std::uint8_t zero_tail[6] = {};
};
static_assert(std::has_unique_object_representations_v<RegCase>,
              "RegCase must have no padding bytes");

class RegSweep : public ::testing::TestWithParam<RegCase> {};

TEST_P(RegSweep, CostDecomposesExactly) {
  const std::uint64_t bytes = GetParam().bytes;
  const mem::PageKind kind = GetParam().kind;
  const bool patched = GetParam().patched;
  const auto plat = platform::opteron_pcie_infinihost();
  mem::PhysicalMemory pm(512 * kMiB, 128, 3);
  mem::HugeTlbFs fs(&pm, 128, 0);
  mem::AddressSpace as(&pm, &fs);
  Adapter hca(0, plat.adapter);

  auto& m = as.map(bytes, kind);
  const std::uint64_t os_page = page_size_of(kind);
  const std::uint64_t trans_page =
      (kind == mem::PageKind::Huge && patched) ? kHugePageSize
                                               : kSmallPageSize;
  const auto r = hca.reg_mr(as, m.va_base, bytes, trans_page);

  const std::uint64_t npages = div_ceil(bytes, os_page);
  const std::uint64_t ntrans = div_ceil(bytes, trans_page);
  EXPECT_EQ(r.mr->npages, npages);
  EXPECT_EQ(r.mr->ntrans, ntrans);
  const auto& c = plat.adapter;
  EXPECT_EQ(r.cost, c.reg_base + npages * c.pin_per_page +
                        ntrans * (c.trans_build_per_entry +
                                  c.trans_ship_per_entry));

  // Deregistration symmetry: pages unpinned, cost model exact.
  const TimePs dereg = hca.dereg_mr(r.mr->lkey);
  EXPECT_EQ(dereg, c.dereg_base + npages * c.unpin_per_page);
  EXPECT_EQ(as.pinned_pages(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, RegSweep,
    ::testing::Values(
        RegCase{4 * kKiB, mem::PageKind::Small, true},
        RegCase{64 * kKiB, mem::PageKind::Small, true},
        RegCase{1 * kMiB, mem::PageKind::Small, true},
        RegCase{16 * kMiB, mem::PageKind::Small, true},
        RegCase{2 * kMiB, mem::PageKind::Huge, true},
        RegCase{2 * kMiB, mem::PageKind::Huge, false},
        RegCase{16 * kMiB, mem::PageKind::Huge, true},
        RegCase{16 * kMiB, mem::PageKind::Huge, false},
        RegCase{100 * kMiB, mem::PageKind::Huge, true}),
    [](const auto& info) {
      return std::to_string(info.param.bytes / kKiB) + "KB_" +
             (info.param.kind == mem::PageKind::Huge ? "huge" : "small") +
             (info.param.patched ? "_patched" : "_stock");
    });

TEST(RegRatio, ShrinksTowardOnePercentWithSize) {
  const auto plat = platform::opteron_pcie_infinihost();
  mem::PhysicalMemory pm(1 * kGiB, 256, 3);
  mem::HugeTlbFs fs(&pm, 256, 0);
  mem::AddressSpace as(&pm, &fs);
  Adapter hca(0, plat.adapter);

  double prev_ratio = 1.0;
  for (std::uint64_t bytes = 2 * kMiB; bytes <= 128 * kMiB; bytes *= 2) {
    auto& ms = as.map(bytes, mem::PageKind::Small);
    auto& mh = as.map(bytes, mem::PageKind::Huge);
    const auto rs = hca.reg_mr(as, ms.va_base, bytes, kSmallPageSize);
    const auto rh = hca.reg_mr(as, mh.va_base, bytes, kHugePageSize);
    const double ratio =
        static_cast<double>(rh.cost) / static_cast<double>(rs.cost);
    EXPECT_LT(ratio, prev_ratio) << "ratio must shrink with size";
    prev_ratio = ratio;
    hca.dereg_mr(rs.mr->lkey);
    hca.dereg_mr(rh.mr->lkey);
    as.unmap(ms.va_base);
    as.unmap(mh.va_base);
  }
  EXPECT_LT(prev_ratio, 0.01) << "large buffers must reach the ~1 % regime";
}

}  // namespace
}  // namespace ibp::hca

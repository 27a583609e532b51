#include "ibp/mem/address_space.hpp"

#include <sys/mman.h>

#include <cerrno>
#include <cstring>

namespace ibp::mem {

void HostUnmap::operator()(std::uint8_t* p) const { munmap(p, bytes); }

AddressSpace::~AddressSpace() {
  // Return frames; pins are intentionally not enforced at teardown so a
  // failing test can destroy the world without cascading errors.
  for (auto& [base, m] : mappings_) {
    if (m->kind == PageKind::Huge && hugetlbfs_ != nullptr) {
      hugetlbfs_->release(m->frames);
    } else {
      for (PhysAddr pa : m->frames) {
        if (m->kind == PageKind::Small)
          phys_->free_small_frame(pa);
        else
          phys_->free_huge_frame(pa);
      }
    }
  }
}

Mapping& AddressSpace::map(std::uint64_t length, PageKind kind) {
  IBP_CHECK(length > 0, "zero-length mapping");
  const std::uint64_t psz = page_size_of(kind);
  const std::uint64_t rounded = align_up(length, psz);
  const std::uint64_t npages = rounded / psz;

  auto m = std::make_unique<Mapping>();
  m->length = rounded;
  m->kind = kind;
  m->pins.assign(npages, 0);
  // Not calloc: once glibc's dynamic mmap threshold has risen past a
  // size, calloc serves it from the heap and clears, so commits, every
  // page of a reused chunk, and peak RSS grows with the number of
  // clusters a process has built.
  void* host = mmap(nullptr, rounded, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  IBP_CHECK(host != MAP_FAILED, "no host memory to back a "
                                    << rounded << "-byte mapping: "
                                    << std::strerror(errno));
  m->backing = {static_cast<std::uint8_t*>(host), HostUnmap{rounded}};

  if (kind == PageKind::Small) {
    m->va_base = next_small_;
    next_small_ += rounded + psz;  // guard page gap
    m->frames.reserve(npages);
    for (std::uint64_t i = 0; i < npages; ++i)
      m->frames.push_back(phys_->alloc_small_frame());
  } else {
    IBP_CHECK(hugetlbfs_ != nullptr,
              "hugepage mapping without a hugeTLBfs mount");
    m->va_base = next_huge_;
    next_huge_ += rounded + psz;
    m->frames = hugetlbfs_->acquire(npages);
  }

  auto [it, inserted] = mappings_.emplace(m->va_base, std::move(m));
  IBP_CHECK(inserted);
  return *it->second;
}

void AddressSpace::unmap(VirtAddr va_base) {
  auto it = mappings_.find(va_base);
  IBP_CHECK(it != mappings_.end(), "unmap of unknown mapping " << va_base);
  Mapping& m = *it->second;
  for (std::uint32_t p : m.pins)
    IBP_CHECK(p == 0, "unmap of a pinned mapping va=" << va_base
        << " len=" << (m.npages() * m.page_size()));
  if (m.kind == PageKind::Huge) {
    hugetlbfs_->release(m.frames);
  } else {
    for (PhysAddr pa : m.frames) phys_->free_small_frame(pa);
  }
  mappings_.erase(it);
}

Mapping* AddressSpace::find(VirtAddr va, std::uint64_t len) {
  auto it = mappings_.upper_bound(va);
  if (it == mappings_.begin()) return nullptr;
  --it;
  Mapping* m = it->second.get();
  return m->contains(va, len) ? m : nullptr;
}

const Mapping* AddressSpace::find(VirtAddr va, std::uint64_t len) const {
  return const_cast<AddressSpace*>(this)->find(va, len);
}

Translation AddressSpace::translate(VirtAddr va) const {
  const Mapping* m = find(va);
  IBP_CHECK(m != nullptr, "translate of unmapped address " << std::hex << va);
  const std::uint64_t psz = m->page_size();
  const std::uint64_t page = (va - m->va_base) / psz;
  const std::uint64_t off = (va - m->va_base) % psz;
  Translation t;
  t.page_pa = m->frames[page];
  t.pa = t.page_pa + off;
  t.page_size = psz;
  t.page_va = m->va_base + page * psz;
  return t;
}

std::uint64_t AddressSpace::pin(VirtAddr va, std::uint64_t len) {
  Mapping* m = find(va, len);
  IBP_CHECK(m != nullptr, "pin of unmapped range");
  const std::uint64_t psz = m->page_size();
  const std::uint64_t first = (va - m->va_base) / psz;
  const std::uint64_t last = (va + len - 1 - m->va_base) / psz;
  for (std::uint64_t p = first; p <= last; ++p) {
    if (m->pins[p]++ == 0) ++pinned_pages_;
  }
  return last - first + 1;
}

std::uint64_t AddressSpace::unpin(VirtAddr va, std::uint64_t len) {
  Mapping* m = find(va, len);
  IBP_CHECK(m != nullptr, "unpin of unmapped range");
  const std::uint64_t psz = m->page_size();
  const std::uint64_t first = (va - m->va_base) / psz;
  const std::uint64_t last = (va + len - 1 - m->va_base) / psz;
  for (std::uint64_t p = first; p <= last; ++p) {
    IBP_CHECK(m->pins[p] > 0, "unpin of unpinned page");
    if (--m->pins[p] == 0) --pinned_pages_;
  }
  return last - first + 1;
}

std::span<std::uint8_t> AddressSpace::host_span(VirtAddr va,
                                                std::uint64_t len) {
  Mapping* m = find(va, len);
  IBP_CHECK(m != nullptr, "host_span of unmapped range va=" << std::hex << va
                                                            << " len=" << std::dec << len);
  return {m->backing.get() + (va - m->va_base), len};
}

std::span<const std::uint8_t> AddressSpace::host_span(
    VirtAddr va, std::uint64_t len) const {
  return const_cast<AddressSpace*>(this)->host_span(va, len);
}

std::uint64_t AddressSpace::mapped_bytes(PageKind kind) const {
  std::uint64_t total = 0;
  for (const auto& [base, m] : mappings_)
    if (m->kind == kind) total += m->length;
  return total;
}

std::vector<PhysAddr> HugeTlbFs::acquire(std::uint64_t n) {
  IBP_CHECK(n <= available(),
            "hugeTLBfs pool exhausted: want " << n << ", available "
                                              << available());
  std::vector<PhysAddr> frames;
  frames.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i)
    frames.push_back(phys_->alloc_huge_frame());
  used_ += n;
  return frames;
}

void HugeTlbFs::release(const std::vector<PhysAddr>& frames) {
  IBP_CHECK(frames.size() <= used_);
  for (PhysAddr pa : frames) phys_->free_huge_frame(pa);
  used_ -= frames.size();
}

}  // namespace ibp::mem

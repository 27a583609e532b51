#pragma once

// Non-contiguous datatypes (MPI_Type_vector semantics).
//
// The paper's §4/§7 point: "MPI_Pack() and MPI_Unpack() may be mapped
// directly to this InfiniBand interface" — a strided datatype's blocks
// are exactly a scatter/gather list. Datatype describes `count` blocks of
// `block_len` bytes placed `stride` bytes apart; Comm::send_typed asks
// Comm's one path decision, which sends it through the NIC's SGE list
// when it fits the eager path (and sge_gather is on) and through
// pack-and-send otherwise.

#include <cstdint>
#include <vector>

#include "ibp/common/check.hpp"
#include "ibp/common/types.hpp"

namespace ibp::mpi {

struct Seg;  // from comm.hpp

struct Datatype {
  std::uint64_t count = 1;      // number of blocks
  std::uint64_t block_len = 0;  // bytes per block
  std::uint64_t stride = 0;     // bytes between block starts (>= block_len)

  static Datatype contiguous(std::uint64_t bytes) {
    return Datatype{1, bytes, bytes};
  }
  static Datatype vector(std::uint64_t count, std::uint64_t block_len,
                         std::uint64_t stride) {
    IBP_CHECK(stride >= block_len, "overlapping vector blocks");
    return Datatype{count, block_len, stride};
  }

  /// Packed size in bytes.
  std::uint64_t size() const { return count * block_len; }

  /// Footprint from the first to one past the last byte touched.
  std::uint64_t extent() const {
    if (count == 0 || block_len == 0) return 0;
    return (count - 1) * stride + block_len;
  }

  bool is_contiguous() const { return count <= 1 || stride == block_len; }
};

}  // namespace ibp::mpi

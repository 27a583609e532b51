#pragma once

// Wire-level and work-request types of the simulated InfiniBand adapter.

#include <cstdint>
#include <vector>

#include "ibp/common/types.hpp"

namespace ibp::hca {

/// Scatter-gather element: one contiguous piece of a work request.
struct Sge {
  VirtAddr addr = 0;
  std::uint32_t length = 0;
  std::uint32_t lkey = 0;
};

enum class Opcode : std::uint8_t {
  Send,            // two-sided: consumed by a posted receive at the peer
  RdmaWrite,       // one-sided: placed directly into the peer's memory
  RdmaRead,        // one-sided: pulled from the peer's memory
  AtomicFetchAdd,  // one-sided 8-byte fetch-and-add; old value returned
  AtomicCmpSwap,   // one-sided 8-byte compare-and-swap; old value returned
};

struct SendWr {
  std::uint64_t wr_id = 0;
  Opcode opcode = Opcode::Send;
  std::vector<Sge> sges;  // RDMA read: the *destination* of the pulled data
  // RDMA write/read only:
  VirtAddr remote_addr = 0;
  std::uint32_t rkey = 0;
  // Atomics: the operand (add value / swap value) and CAS compare value.
  std::uint64_t atomic_arg = 0;
  std::uint64_t atomic_compare = 0;
  // Optional 32-bit immediate delivered with the message (used by the MPI
  // layer to tag eager packets without touching payload bytes). On an
  // RdmaWrite this selects write-with-immediate semantics: the payload is
  // placed one-sided, but a posted receive at the peer is consumed and
  // completes with the immediate (byte_len = write length, nothing
  // scattered through the receive SGEs).
  bool has_imm = false;
  std::uint32_t imm = 0;
  // Inline the payload into the WQE (IBV_SEND_INLINE): the NIC skips the
  // per-SGE DMA gather — no descriptor setup, no sender-side ATT traffic —
  // and the CPU pays a per-byte copy at post time instead. Only valid up
  // to AdapterConfig::inline_max bytes.
  bool inline_data = false;

  std::uint64_t total_length() const {
    std::uint64_t n = 0;
    for (const auto& s : sges) n += s.length;
    return n;
  }
};

struct RecvWr {
  std::uint64_t wr_id = 0;
  std::vector<Sge> sges;

  std::uint64_t total_length() const {
    std::uint64_t n = 0;
    for (const auto& s : sges) n += s.length;
    return n;
  }
};

enum class CqeType : std::uint8_t {
  SendComplete,
  RecvComplete,
  RdmaWriteComplete,
  RdmaReadComplete,
  AtomicComplete,
};
/// Work-completion status (ibv_wc_status equivalent).
enum class WcStatus : std::uint8_t {
  Success,
  LocalLengthError,    // inbound message truncated by the receive WR
  RetryExceeded,       // transport retry budget exhausted (lost packets)
  RnrRetryExceeded,    // receiver never posted a receive within the budget
  WorkRequestFlushed,  // WR drained while the QP sat in the error state
  RemoteError,         // peer NAK'd the request (e.g. length violation)
};
/// Historical name, kept for call sites predating the reliability model.
using CqeStatus = WcStatus;

inline const char* wc_status_name(WcStatus s) {
  switch (s) {
    case WcStatus::Success: return "success";
    case WcStatus::LocalLengthError: return "local-length-error";
    case WcStatus::RetryExceeded: return "retry-exceeded";
    case WcStatus::RnrRetryExceeded: return "rnr-retry-exceeded";
    case WcStatus::WorkRequestFlushed: return "work-request-flushed";
    case WcStatus::RemoteError: return "remote-error";
  }
  return "unknown";
}

struct Cqe {
  std::uint64_t wr_id = 0;
  CqeType type = CqeType::SendComplete;
  WcStatus status = WcStatus::Success;
  std::uint32_t byte_len = 0;
  bool has_imm = false;
  std::uint32_t imm = 0;
  std::uint32_t qp_num = 0;     // local QP this completion belongs to
  TimePs ready_time = 0;        // virtual time the CQE becomes pollable
};

}  // namespace ibp::hca

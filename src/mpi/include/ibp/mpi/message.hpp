#pragma once

// Wire protocol of the simpi transport.
//
// Every transport-level message starts with a fixed 48-byte header; eager
// payload follows in-band. Rendezvous exchanges RTS/CTS/FIN control
// messages and moves the payload by RDMA write into the receiver's
// registered buffer, by RDMA read from the sender's, or as an in-band
// RndvData message through bounce buffers (medium path). The sender
// picks the flavour and names it in its RTS; the receiver follows it.

#include <cstdint>
#include <cstring>

#include "ibp/common/check.hpp"
#include "ibp/common/types.hpp"

namespace ibp::mpi {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

enum class MsgKind : std::uint32_t {
  Eager = 1,     // header + payload in-band
  Rts = 2,       // rendezvous request-to-send
  Cts = 3,       // clear-to-send (raddr/rkey==0 selects the copy path)
  RndvData = 4,  // medium rendezvous payload in-band
  Fin = 5,       // write rendezvous: sender -> receiver, data placed
  FinRead = 6,   // read rendezvous: receiver -> sender, data pulled
};

/// Rendezvous flavour an RTS names.
enum class Rndv : std::uint32_t {
  Copy = 0,   // CTS without a buffer; the payload follows as RndvData
  Write = 1,  // CTS advertises the receive buffer; the sender RDMA-writes
  Read = 2,   // RTS advertises the send buffer; the receiver RDMA-reads
};

struct Header {
  std::uint32_t kind = 0;
  std::int32_t src = 0;
  std::int32_t tag = 0;
  std::uint32_t rkey = 0;
  std::uint64_t size = 0;   // full payload size of the user message
  std::uint64_t req = 0;    // sender-side request id (rendezvous matching)
  std::uint64_t raddr = 0;  // CTS/read RTS: advertised buffer address
  // Per (src, dst) flow sequence number: restores envelope order when
  // messages ride different transports (ring records vs RC bounce, e.g.
  // after a ring ran out of credit).
  std::uint32_t seq = 0;
  std::uint32_t rndv = 0;  // RTS: the Rndv flavour the sender chose
};
static_assert(sizeof(Header) == 48);

inline constexpr std::uint64_t kHeaderBytes = sizeof(Header);

inline void store_header(std::uint8_t* dst, const Header& h) {
  std::memcpy(dst, &h, sizeof(Header));
}

inline Header load_header(const std::uint8_t* src) {
  Header h;
  std::memcpy(&h, src, sizeof(Header));
  IBP_CHECK(h.kind >= 1 && h.kind <= 6, "corrupt transport header");
  return h;
}

}  // namespace ibp::mpi

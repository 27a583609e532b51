#pragma once

// Wire protocol of the simpi transport.
//
// Every transport-level message starts with a fixed 48-byte header; eager
// payload follows in-band. Rendezvous exchanges RTS/CTS/FIN control
// messages and moves the payload either by RDMA write into the receiver's
// registered buffer (large path) or as an in-band RndvData message through
// bounce buffers (medium path).

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

struct Header {
  std::uint32_t kind = 0;
  std::int32_t src = 0;
  std::int32_t tag = 0;
  std::uint32_t rkey = 0;
  std::uint64_t size = 0;   // full payload size of the user message
  std::uint64_t req = 0;    // sender-side request id (rendezvous matching)
  std::uint64_t raddr = 0;  // CTS: receiver buffer address
  // Per (src, dst) flow sequence number: restores envelope order when
  // messages ride different transports (ring records vs RC bounce, e.g.
  // after a ring ran out of credit).
  std::uint32_t seq = 0;
  std::uint32_t pad = 0;
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

#pragma once

// Test helpers for the completion hand-over contract that RpcClient and
// fabric::FabricClient share: wait(id) takes the record of an outstanding
// id and fails fast, naming the id, on any other.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ibp/common/check.hpp"
#include "ibp/rpc/rpc.hpp"

namespace ibp::test {

/// Runs `c.wait(id)` and returns the error it failed with ("" if none).
template <typename Client>
std::string wait_error(Client& c, std::uint64_t id) {
  try {
    (void)c.wait(id);
  } catch (const SimError& e) {
    return e.what();
  }
  return "";
}

/// One Ok request, then waits on an id never issued (99), on the id just
/// handed over and on the 0 a rejected submit returns: each fails at once
/// with `kind` ("rpc" or "fabric") and the id in its message, and the
/// client stays usable.
template <typename Client>
void expect_wait_fails_fast(Client& c, const std::string& kind) {
  const std::vector<std::uint8_t> msg{1};
  const std::uint64_t id = c.submit(msg);
  ASSERT_NE(id, 0u);
  EXPECT_EQ(c.wait(id).status, rpc::Status::Ok);
  const std::string never = wait_error(c, 99);
  EXPECT_NE(never.find("wait on " + kind +
                       " id 99, which this client never issued or already "
                       "handed over"),
            std::string::npos)
      << never;
  const std::string again = wait_error(c, id);
  EXPECT_NE(again.find("wait on " + kind + " id " + std::to_string(id) +
                       ", which this client never issued or already "
                       "handed over"),
            std::string::npos)
      << again;
  const std::string zero = wait_error(c, 0);
  EXPECT_NE(zero.find("wait on " + kind +
                      " id 0, which this client returns for a rejected "
                      "submit"),
            std::string::npos)
      << zero;
  EXPECT_EQ(c.wait(c.submit(msg)).status, rpc::Status::Ok);
}

}  // namespace ibp::test

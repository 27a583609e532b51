// Randomized MPI traffic checked against an oracle.
//
// Each trial builds a random program: every rank gets a deterministic
// schedule of sends (random sizes spanning all protocol bands, random
// destinations, tags drawn from a small set) and matching receives. The
// oracle is computed sequentially up front: for every (src, dst, tag)
// envelope, messages must arrive in post order carrying exactly the bytes
// the schedule assigned. Trials sweep topology, protocol knobs and
// placement.

#include <gtest/gtest.h>

#include <map>
#include <type_traits>
#include <vector>

#include "ibp/mpi/comm.hpp"

namespace ibp::mpi {
namespace {

struct PlannedMsg {
  int src = 0;
  int dst = 0;
  int tag = 0;
  std::uint32_t seq = 0;  // global id; seeds the payload
  std::uint64_t bytes = 0;
};

struct Plan {
  std::vector<PlannedMsg> msgs;  // in global post order
  std::vector<std::vector<std::uint32_t>> sends;  // per rank: msg indices
  std::vector<std::vector<std::uint32_t>> recvs;  // per rank: msg indices
};

Plan make_plan(int nranks, std::uint64_t seed, int nmsgs) {
  Rng rng(seed);
  Plan p;
  p.sends.resize(static_cast<std::size_t>(nranks));
  p.recvs.resize(static_cast<std::size_t>(nranks));
  const std::uint64_t size_pool[] = {0,       1,        17,      1000,
                                     8192,    8193,     12000,   16384,
                                     16385,   50000,    200000};
  for (int i = 0; i < nmsgs; ++i) {
    PlannedMsg m;
    m.src = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(nranks)));
    m.dst = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(nranks)));
    if (m.dst == m.src) m.dst = (m.dst + 1) % nranks;
    m.tag = static_cast<int>(rng.next_below(3));
    m.seq = static_cast<std::uint32_t>(i);
    m.bytes = size_pool[rng.next_below(std::size(size_pool))];
    p.sends[static_cast<std::size_t>(m.src)].push_back(m.seq);
    p.recvs[static_cast<std::size_t>(m.dst)].push_back(m.seq);
    p.msgs.push_back(m);
  }
  return p;
}

std::uint8_t payload_byte(std::uint32_t seq, std::uint64_t i) {
  return static_cast<std::uint8_t>(seq * 37 + i * 11 + (i >> 8));
}

// gtest names each case after a byte dump of this struct, so every byte
// must be defined: padding would dump whatever the stack held. The gaps
// after rndv_read and rdma_eager are spelled out as zeroed members.
struct FuzzParam {
  int nodes = 0;
  int rpn = 0;
  bool hugepages = false;
  bool rndv_read = false;
  std::uint8_t zero_pad[6] = {};
  std::uint64_t seed = 0;
  bool rdma_eager = false;
  std::uint8_t zero_tail[7] = {};
};
static_assert(std::has_unique_object_representations_v<FuzzParam>,
              "FuzzParam must have no padding bytes");

class MpiFuzz : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(MpiFuzz, RandomTrafficMatchesOracle) {
  const FuzzParam& p = GetParam();
  const int nranks = p.nodes * p.rpn;
  const Plan plan = make_plan(nranks, p.seed, 60);

  core::ClusterConfig cfg;
  cfg.nodes = p.nodes;
  cfg.ranks_per_node = p.rpn;
  cfg.hugepage_library = p.hugepages;
  core::Cluster cluster(cfg);
  CommConfig ccfg;
  ccfg.rndv_read = p.rndv_read;
  ccfg.rdma_eager = p.rdma_eager;

  cluster.run([&](core::RankEnv& env) {
    Comm comm(env, ccfg);
    const int me = env.rank();

    // Nonblocking receives posted up front, in the plan's global order —
    // for each envelope that order matches the senders' post order, so
    // non-overtaking guarantees the right pairing.
    struct Pending {
      Req req;
      const PlannedMsg* m;
      VirtAddr buf;
    };
    std::vector<Pending> pending;
    for (std::uint32_t seq : plan.recvs[static_cast<std::size_t>(me)]) {
      const PlannedMsg& m = plan.msgs[seq];
      const VirtAddr buf = env.alloc(std::max<std::uint64_t>(m.bytes, 64));
      pending.push_back(
          {comm.irecv(buf, m.bytes, m.src, m.tag), &m, buf});
    }

    // Sends, interleaved with a little compute jitter.
    for (std::uint32_t seq : plan.sends[static_cast<std::size_t>(me)]) {
      const PlannedMsg& m = plan.msgs[seq];
      const VirtAddr buf = env.alloc(std::max<std::uint64_t>(m.bytes, 64));
      auto s = env.space().host_span(buf, m.bytes);
      for (std::uint64_t i = 0; i < m.bytes; ++i)
        s[i] = payload_byte(m.seq, i);
      env.compute((m.seq % 7) * 1000);
      comm.send(buf, m.bytes, m.dst, m.tag);
    }

    // Drain and verify every receive against the oracle.
    for (auto& pnd : pending) {
      comm.wait(pnd.req);
      ASSERT_EQ(pnd.req->received, pnd.m->bytes);
      ASSERT_EQ(pnd.req->actual_src, pnd.m->src);
      auto s = env.space().host_span(pnd.buf, pnd.m->bytes);
      for (std::uint64_t i = 0; i < pnd.m->bytes; ++i)
        ASSERT_EQ(s[i], payload_byte(pnd.m->seq, i))
            << "msg " << pnd.m->seq << " byte " << i;
    }
    comm.barrier();
  });
}

INSTANTIATE_TEST_SUITE_P(
    Trials, MpiFuzz,
    ::testing::Values(
        FuzzParam{.nodes = 2, .rpn = 1, .seed = 1},
        FuzzParam{.nodes = 2, .rpn = 2, .seed = 2},
        FuzzParam{.nodes = 2, .rpn = 4, .hugepages = true, .seed = 3},
        FuzzParam{.nodes = 2, .rpn = 2, .hugepages = true, .rndv_read = true,
                  .seed = 4},
        FuzzParam{.nodes = 1, .rpn = 4, .seed = 5},
        FuzzParam{.nodes = 2, .rpn = 3, .hugepages = true, .seed = 6},
        FuzzParam{.nodes = 2, .rpn = 1, .rndv_read = true, .seed = 7},
        FuzzParam{.nodes = 3, .rpn = 2, .seed = 8},
        FuzzParam{.nodes = 2, .rpn = 1, .seed = 13, .rdma_eager = true},
        FuzzParam{.nodes = 2, .rpn = 2, .seed = 14, .rdma_eager = true},
        FuzzParam{.nodes = 2, .rpn = 4, .hugepages = true, .seed = 15,
                  .rdma_eager = true},
        FuzzParam{.nodes = 3, .rpn = 2, .hugepages = true, .rndv_read = true,
                  .seed = 16, .rdma_eager = true}),
    [](const auto& info) {
      const auto& p = info.param;
      return std::to_string(p.nodes) + "x" + std::to_string(p.rpn) +
             (p.hugepages ? "_huge" : "_small") +
             (p.rndv_read ? "_read" : "_write") +
             (p.rdma_eager ? "_ring" : "") + "_s" + std::to_string(p.seed);
    });

}  // namespace
}  // namespace ibp::mpi

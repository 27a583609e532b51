// RPC echo: rank 0 serves, rank 1 submits batched echo requests plus one
// large response that takes the rendezvous path, then prints latency
// percentiles from the client's log-scale histogram.
//
//   $ ./examples/rpc_echo
//
// Everything is simulated virtual time: deterministic across runs.

#include <cstdio>
#include <vector>

#include "ibp/core/cluster.hpp"
#include "ibp/mpi/comm.hpp"
#include "ibp/rpc/rpc.hpp"

using namespace ibp;

int main() {
  core::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.ranks_per_node = 1;
  core::Cluster cluster(cfg);

  cluster.run([&](core::RankEnv& env) {
    mpi::CommConfig mc;
    mc.sge_gather = true;  // batches ride one SGE-list work request
    mpi::Comm comm(env, mc);
    rpc::RpcConfig rc;

    if (comm.rank() == 0) {
      rpc::RpcServer server(comm, {1}, rc);
      server.serve();
      const rpc::ServerStats& s = server.stats();
      std::printf("server: %llu requests in %llu batches, %llu served\n",
                  static_cast<unsigned long long>(s.requests_in),
                  static_cast<unsigned long long>(s.batches_in),
                  static_cast<unsigned long long>(s.served));
      return;
    }

    rpc::RpcClient client(comm, 0, rc);
    const std::vector<std::uint8_t> msg = {'h', 'e', 'l', 'l', 'o'};

    // A burst of small echoes: coalesced into gather batches.
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 64; ++i) ids.push_back(client.submit(msg));
    for (std::uint64_t id : ids) {
      const rpc::Completion& c = client.wait(id);
      if (c.payload.size() != msg.size() || c.payload[0] != 'h')
        std::printf("echo mismatch for id %llu!\n",
                    static_cast<unsigned long long>(id));
    }

    // One large response (64 KB): announced in-batch, body on its own
    // tag through the rendezvous path.
    const std::uint64_t big = client.submit(msg, 64 * 1024);
    const rpc::Completion& c = client.wait(big);
    std::printf("client: large response %zu B, status %s\n",
                c.payload.size(),
                c.status == rpc::Status::Ok ? "ok" : "overloaded");

    client.close();
    const rpc::ClientStats& s = client.stats();
    std::printf("client: %llu requests in %llu batches (%.1f req/WR)\n",
                static_cast<unsigned long long>(s.submitted),
                static_cast<unsigned long long>(s.batches),
                s.batches ? static_cast<double>(s.batched_requests) /
                                static_cast<double>(s.batches)
                          : 0.0);
    std::printf("client: echo latency p50 %.1f us  p99 %.1f us\n",
                client.latency().p50() / 1000.0,
                client.latency().p99() / 1000.0);
  });
  return 0;
}

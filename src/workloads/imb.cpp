#include "ibp/workloads/imb.hpp"

#include <algorithm>

#include "ibp/mpi/comm.hpp"

namespace ibp::workloads {

std::vector<std::uint64_t> imb_default_sizes() {
  std::vector<std::uint64_t> sizes;
  for (std::uint64_t s = 4 * kKiB; s <= 16 * kMiB; s <<= 1)
    sizes.push_back(s);
  return sizes;
}

std::vector<ImbPoint> run_sendrecv(core::Cluster& cluster,
                                   const ImbConfig& cfg) {
  const int n = cluster.nranks();
  IBP_CHECK(n >= 2, "SendRecv needs at least two ranks");
  std::vector<ImbPoint> results(cfg.sizes.size());
  // Per-size, per-rank elapsed time; reduced after the run.
  std::vector<std::vector<TimePs>> elapsed(
      cfg.sizes.size(), std::vector<TimePs>(static_cast<std::size_t>(n), 0));

  cluster.run([&](core::RankEnv& env) {
    mpi::Comm comm(env, cfg.comm);
    const int right = (env.rank() + 1) % n;
    const int left = (env.rank() - 1 + n) % n;

    VirtAddr sbuf = 0, rbuf = 0;
    for (std::size_t si = 0; si < cfg.sizes.size(); ++si) {
      const std::uint64_t bytes = std::max<std::uint64_t>(cfg.sizes[si], 64);
      if (sbuf != 0) {
        env.dealloc(sbuf);
        env.dealloc(rbuf);
      }
      sbuf = env.alloc(bytes);
      rbuf = env.alloc(bytes);
      // First touch, as a real benchmark would when initializing.
      env.touch_stream(sbuf, bytes);
      env.touch_stream(rbuf, bytes);
      for (int w = 0; w < cfg.warmup; ++w)
        comm.sendrecv(sbuf, cfg.sizes[si], right, 0, rbuf, cfg.sizes[si],
                      left, 0);
      comm.barrier();
      const TimePs t0 = env.now();
      for (int it = 0; it < cfg.iterations; ++it)
        comm.sendrecv(sbuf, cfg.sizes[si], right, 0, rbuf, cfg.sizes[si],
                      left, 0);
      comm.barrier();
      elapsed[si][static_cast<std::size_t>(env.rank())] = env.now() - t0;
      if (cfg.phase_hook && env.rank() == 0) cfg.phase_hook(si, cfg.sizes[si]);
    }
    if (sbuf != 0) {
      env.dealloc(sbuf);
      env.dealloc(rbuf);
    }
  });

  for (std::size_t si = 0; si < cfg.sizes.size(); ++si) {
    const TimePs worst =
        *std::max_element(elapsed[si].begin(), elapsed[si].end());
    ImbPoint& p = results[si];
    p.bytes = cfg.sizes[si];
    p.avg_time = worst / static_cast<std::uint64_t>(cfg.iterations);
    if (p.avg_time > 0)
      p.mbytes_per_sec = 2.0 * static_cast<double>(p.bytes) /
                         (static_cast<double>(p.avg_time) * 1e-12) / 1e6;
    }
  return results;
}

std::vector<ImbPoint> run_pingpong(core::Cluster& cluster,
                                   const ImbConfig& cfg) {
  IBP_CHECK(cluster.nranks() >= 2, "PingPong needs two ranks");
  std::vector<ImbPoint> results(cfg.sizes.size());
  std::vector<TimePs> elapsed(cfg.sizes.size(), 0);

  cluster.run([&](core::RankEnv& env) {
    mpi::Comm comm(env, cfg.comm);
    if (env.rank() > 1) return;  // spectators, as in IMB
    const int other = 1 - env.rank();
    VirtAddr buf = 0;
    for (std::size_t si = 0; si < cfg.sizes.size(); ++si) {
      const std::uint64_t bytes = cfg.sizes[si];
      if (buf != 0) env.dealloc(buf);
      const std::uint64_t cap = std::max<std::uint64_t>(bytes, 64);
      buf = env.alloc(cap);
      env.touch_stream(buf, cap);
      auto round = [&] {
        if (env.rank() == 0) {
          comm.send(buf, bytes, other, 0);
          comm.recv(buf, bytes, other, 0);
        } else {
          comm.recv(buf, bytes, other, 0);
          comm.send(buf, bytes, other, 0);
        }
      };
      for (int w = 0; w < cfg.warmup; ++w) round();
      const TimePs t0 = env.now();
      for (int it = 0; it < cfg.iterations; ++it) round();
      if (env.rank() == 0) {
        elapsed[si] = env.now() - t0;
        if (cfg.phase_hook) cfg.phase_hook(si, bytes);
      }
    }
    if (buf != 0) env.dealloc(buf);
  });

  for (std::size_t si = 0; si < cfg.sizes.size(); ++si) {
    ImbPoint& p = results[si];
    p.bytes = cfg.sizes[si];
    p.avg_time =
        elapsed[si] / (2ull * static_cast<std::uint64_t>(cfg.iterations));
    if (p.avg_time > 0)
      p.mbytes_per_sec = static_cast<double>(p.bytes) /
                         (static_cast<double>(p.avg_time) * 1e-12) / 1e6;
  }
  return results;
}

std::vector<ImbPoint> run_exchange(core::Cluster& cluster,
                                   const ImbConfig& cfg) {
  const int n = cluster.nranks();
  IBP_CHECK(n >= 2, "Exchange needs at least two ranks");
  std::vector<ImbPoint> results(cfg.sizes.size());
  std::vector<std::vector<TimePs>> elapsed(
      cfg.sizes.size(), std::vector<TimePs>(static_cast<std::size_t>(n), 0));

  cluster.run([&](core::RankEnv& env) {
    mpi::Comm comm(env, cfg.comm);
    const int right = (env.rank() + 1) % n;
    const int left = (env.rank() - 1 + n) % n;
    VirtAddr sbuf = 0, rbuf = 0;
    for (std::size_t si = 0; si < cfg.sizes.size(); ++si) {
      const std::uint64_t bytes = cfg.sizes[si];
      if (sbuf != 0) {
        env.dealloc(sbuf);
        env.dealloc(rbuf);
      }
      const std::uint64_t cap = std::max<std::uint64_t>(bytes, 64);
      sbuf = env.alloc(cap * 2);
      rbuf = env.alloc(cap * 2);
      env.touch_stream(sbuf, cap * 2);
      env.touch_stream(rbuf, cap * 2);
      auto round = [&] {
        mpi::Req rs[4] = {
            comm.irecv(rbuf, bytes, left, 0),
            comm.irecv(rbuf + cap, bytes, right, 1),
            comm.isend(sbuf, bytes, left, 1),
            comm.isend(sbuf + cap, bytes, right, 0),
        };
        for (auto& r : rs) comm.wait(r);
      };
      for (int w = 0; w < cfg.warmup; ++w) round();
      comm.barrier();
      const TimePs t0 = env.now();
      for (int it = 0; it < cfg.iterations; ++it) round();
      comm.barrier();
      elapsed[si][static_cast<std::size_t>(env.rank())] = env.now() - t0;
      if (cfg.phase_hook && env.rank() == 0) cfg.phase_hook(si, bytes);
    }
    if (sbuf != 0) {
      env.dealloc(sbuf);
      env.dealloc(rbuf);
    }
  });

  for (std::size_t si = 0; si < cfg.sizes.size(); ++si) {
    const TimePs worst =
        *std::max_element(elapsed[si].begin(), elapsed[si].end());
    ImbPoint& p = results[si];
    p.bytes = cfg.sizes[si];
    p.avg_time = worst / static_cast<std::uint64_t>(cfg.iterations);
    if (p.avg_time > 0)
      p.mbytes_per_sec = 4.0 * static_cast<double>(p.bytes) /
                         (static_cast<double>(p.avg_time) * 1e-12) / 1e6;
  }
  return results;
}

}  // namespace ibp::workloads

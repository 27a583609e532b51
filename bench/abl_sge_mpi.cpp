// ABL-SGE — the paper's §7 future-work feature, implemented and measured:
// sending a strided datatype (k non-contiguous pieces) through the MPI
// layer either by packing into a contiguous staging buffer (MPI_Pack +
// send; the state of all 2006 InfiniBand MPIs) or as ONE work request
// whose scatter-gather list the NIC walks (§4's proposal).
//
// Shape target: for small messages the SGE path wins (no CPU pack copy,
// one WR, one CQE), consistent with Figure 3's sub-linear SGE scaling.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "ibp/mpi/comm.hpp"

using namespace ibp;

namespace {

enum class Mode { Pack, Sge, Separate };

TimePs measure(Mode mode, std::uint32_t pieces, std::uint32_t piece_bytes) {
  core::ClusterConfig cfg;
  cfg.platform = platform::systemp_gx_ehca();
  cfg.nodes = 2;
  cfg.ranks_per_node = 1;
  core::Cluster cluster(cfg);
  mpi::CommConfig ccfg;
  ccfg.sge_gather = mode == Mode::Sge;
  constexpr int kIters = 30;
  constexpr int kWarmup = 5;

  TimePs elapsed = 0;
  cluster.run([&](core::RankEnv& env) {
    mpi::Comm comm(env, ccfg);
    // Pieces live one per page, like fields scattered through a struct
    // array.
    const std::uint64_t total = static_cast<std::uint64_t>(pieces) *
                                piece_bytes;
    if (env.rank() == 0) {
      std::vector<mpi::Seg> segs;
      const VirtAddr base = env.alloc(pieces * kSmallPageSize * 2);
      for (std::uint32_t p = 0; p < pieces; ++p)
        segs.push_back({base + p * kSmallPageSize, piece_bytes});
      for (int it = 0; it < kIters + kWarmup; ++it) {
        if (it == kWarmup) elapsed = env.now();
        if (mode == Mode::Separate) {
          std::vector<mpi::Req> rs;
          for (const auto& seg : segs)
            rs.push_back(comm.isend(seg.addr, seg.len, 1, 7));
          comm.waitall(rs);
        } else {
          mpi::Req r = comm.isend_gather(segs, 1, 7);
          comm.wait(r);
        }
        // Wait for the ack ping so iterations do not pipeline.
        comm.recv(base, 8, 1, 8);
      }
      elapsed = (env.now() - elapsed) / kIters;
    } else {
      const VirtAddr buf = env.alloc(std::max<std::uint64_t>(total, 64) + 64);
      for (int it = 0; it < kIters + kWarmup; ++it) {
        if (mode == Mode::Separate) {
          std::uint64_t off = 0;
          for (std::uint32_t p = 0; p < pieces; ++p) {
            comm.recv(buf + off, piece_bytes, 0, 7);
            off += piece_bytes;
          }
        } else {
          comm.recv(buf, total, 0, 7);
        }
        comm.send(buf, 8, 0, 8);
      }
    }
  });
  return elapsed;
}

}  // namespace

int main() {
  std::printf("ABL-SGE: strided send via pack-and-send vs NIC scatter/"
              "gather (platform=systemp, round-trip us)\n\n");
  TextTable t({"pieces x bytes", "separate sends [us]", "pack+send [us]",
               "SGE gather [us]", "SGE vs separate", "SGE vs pack"});
  const std::uint32_t shapes[][2] = {
      {2, 64}, {4, 64}, {8, 64}, {4, 256}, {8, 256}, {4, 1024}, {8, 512}};
  for (const auto& sh : shapes) {
    const TimePs sep = measure(Mode::Separate, sh[0], sh[1]);
    const TimePs pack = measure(Mode::Pack, sh[0], sh[1]);
    const TimePs sge = measure(Mode::Sge, sh[0], sh[1]);
    char label[32], r1[32], r2[32];
    std::snprintf(label, sizeof label, "%u x %u B", sh[0], sh[1]);
    std::snprintf(r1, sizeof r1, "%.2fx",
                  static_cast<double>(sep) / static_cast<double>(sge));
    std::snprintf(r2, sizeof r2, "%.2fx",
                  static_cast<double>(pack) / static_cast<double>(sge));
    t.add_row(std::string(label), ps_to_us(sep), ps_to_us(pack),
              ps_to_us(sge), std::string(r1), std::string(r2));
  }
  t.print();
  std::printf("\n(paper §4/§7: MPI implementations 'may benefit in a "
              "perceptible way' from mapping Pack/Unpack onto SGE lists)\n");
  return 0;
}

// Quickstart: the smallest complete collective write.
//
// Builds a simulated 4-node cluster (fabric + MPI + parallel file system),
// runs 16 ranks that each contribute one contiguous megabyte to a shared
// file through the two-phase engine with the Write-Comm-2 overlap
// scheduler, verifies the file byte-for-byte, and prints what happened.
//
//   ./build/examples/quickstart

#include <cstdio>
#include <span>
#include <vector>

#include "core/engine.hpp"
#include "mpi/mpi.hpp"
#include "net/fabric.hpp"
#include "pfs/pfs.hpp"
#include "sched/conductor.hpp"
#include "simbase/units.hpp"

namespace sim = tpio::sim;
namespace net = tpio::net;
namespace smpi = tpio::smpi;
namespace pfs = tpio::pfs;
namespace coll = tpio::coll;

namespace {

/// What the file should hold at [offset, offset + out.size()): the ranks
/// fill their buffers with it and verify() checks the file against it.
void content(std::uint64_t offset, std::span<std::byte> out) {
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::uint64_t o = offset + i;
    out[i] = static_cast<std::byte>((o * 37 + o / 1000) & 0xFF);
  }
}

}  // namespace

int main() {
  // --- the simulated cluster -------------------------------------------
  const net::Topology topo{/*nodes=*/4, /*procs_per_node=*/4};
  net::FabricParams fabric_params;  // InfiniBand-ish defaults
  net::Fabric fabric(topo, fabric_params);

  smpi::MpiParams mpi_params;  // eager/rendezvous at 512 KiB, etc.
  smpi::Machine machine(fabric, mpi_params);

  pfs::PfsParams pfs_params;  // 16 targets, 1 MiB stripes
  pfs::StorageSystem storage(pfs_params, &fabric);
  auto file = storage.create("quickstart.out", pfs::Integrity::Store);

  // --- the parallel job --------------------------------------------------
  const std::uint64_t block = 1 << 20;  // 1 MiB per rank
  std::vector<coll::Result> results(static_cast<std::size_t>(topo.nprocs()));

  sim::Conductor conductor(topo.nprocs());
  conductor.run([&](sim::RankCtx& ctx) {
    smpi::Mpi mpi(machine, ctx);

    // Rank r owns file range [r * block, (r+1) * block).
    coll::FileView view;
    view.extents.push_back(
        coll::Extent{static_cast<std::uint64_t>(mpi.rank()) * block, block});
    std::vector<std::byte> data(block);
    content(view.extents[0].offset, data);

    coll::Options options;            // OMPIO-flavoured defaults
    options.cb_size = 4 * sim::MiB;   // collective buffer
    options.overlap = coll::OverlapMode::WriteComm2;
    options.transfer = coll::Transfer::TwoSided;

    results[static_cast<std::size_t>(mpi.rank())] =
        coll::collective_write(mpi, *file, view, data, options);
  });

  // --- results ------------------------------------------------------------
  const std::string err = file->verify(content);
  const coll::Result& r = results[0];
  std::printf("wrote %s through %d aggregators in %d cycles\n",
              sim::format_bytes(r.bytes_global).c_str(), r.aggregators,
              r.cycles);
  std::printf("virtual job time: %s (effective %s)\n",
              sim::format_time(conductor.makespan()).c_str(),
              sim::format_bandwidth(static_cast<double>(r.bytes_global) /
                                    sim::to_seconds(conductor.makespan()))
                  .c_str());
  std::printf("verification: %s\n", err.empty() ? "OK - every byte correct"
                                                : err.c_str());
  return err.empty() ? 0 : 1;
}

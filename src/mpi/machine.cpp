#include <algorithm>
#include <bit>
#include <cstring>

#include "mpi/internal.hpp"
#include "mpi/mpi.hpp"
#include "simbase/error.hpp"

namespace tpio::smpi {

using detail::ceil_log2;
using detail::kControlBytes;

Machine::Machine(net::Fabric& fabric, const MpiParams& params, bool payloads)
    : fabric_(&fabric),
      params_(params),
      payloads_(payloads),
      endpoints_(static_cast<std::size_t>(fabric.topology().nprocs())),
      barrier_sync_(fabric.topology().nprocs()),
      win_sync_(fabric.topology().nprocs()) {}

sim::Duration Machine::sync_collective_cost(int parties) const {
  return static_cast<sim::Duration>(ceil_log2(std::max(parties, 1))) *
         params_.collective_hop;
}

sim::Time Machine::progress_at(int rank, sim::Time t) const {
  if (params_.progress_thread) return t;
  return std::max(t, endpoints_[static_cast<std::size_t>(rank)].unavailable_until);
}

sim::Time Machine::finish_rendezvous(const Message& msg, int dst,
                                     std::span<std::byte> buf,
                                     sim::Time match_time) {
  TPIO_CHECK(msg.rendezvous, "finish_rendezvous on eager message");
  TPIO_CHECK(buf.size() >= msg.bytes,
             "receive buffer smaller than rendezvous message");
  // The target's MPI engine processes the RTS no earlier than both the RTS
  // arrival and the match instant, then returns a clear-to-send.
  const sim::Time rts_processed = std::max(msg.arrival, match_time);
  const sim::Time cts_arrival =
      fabric_->transfer_control(dst, msg.src, rts_processed);
  // Bulk data moves once the sender side is both past its post time and has
  // received the CTS; the transfer itself is NIC-driven (RDMA), so neither
  // CPU is charged for the bytes.
  const sim::Time depart = std::max(cts_arrival, msg.sender_post);
  const sim::Time data_arrival =
      fabric_->transfer(msg.src, dst, msg.bytes, depart);
  if (payloads_) std::memcpy(buf.data(), msg.rndv_data, msg.bytes);
  return data_arrival;
}

// --------------------------------------------------------------------------
// Mpi: point-to-point
// --------------------------------------------------------------------------

Mpi::Mpi(Machine& machine, sim::RankCtx& ctx)
    : machine_(&machine), ctx_(&ctx) {
  TPIO_CHECK(ctx.size() == machine.size(),
             "conductor rank count differs from fabric topology");
}

int Mpi::size() const { return machine_->size(); }

Request Mpi::isend(int dst, Tag tag, std::span<const std::byte> data) {
  TPIO_CHECK(dst >= 0 && dst < size(), "isend: destination out of range");
  Machine& m = *machine_;
  ctx_->advance(m.params_.send_overhead);
  auto done = std::make_shared<sim::Event>();

  ctx_->act([&] {
    Machine::Endpoint& ep = m.endpoints_[static_cast<std::size_t>(dst)];
    const bool eager = data.size() <= m.params_.eager_limit;
    if (eager) {
      const sim::Time arrival =
          m.fabric_->transfer(rank(), dst, data.size(), ctx_->now());
      // Try to land directly in a matching pre-posted receive (no target
      // CPU needed: tag matching is offloaded for the eager path).
      auto it = std::find_if(ep.posted.begin(), ep.posted.end(),
                             [&](const Machine::PostedRecv& r) {
                               return Machine::matches(r, rank(), tag);
                             });
      if (it != ep.posted.end()) {
        TPIO_CHECK(it->buf.size() >= data.size(),
                   "receive buffer smaller than incoming message");
        if (m.payloads_) std::memcpy(it->buf.data(), data.data(), data.size());
        ctx_->complete(*it->done, arrival + m.params_.recv_overhead);
        ep.posted.erase(it);
      } else {
        Machine::Message msg;
        msg.src = rank();
        msg.tag = tag;
        msg.rendezvous = false;
        msg.bytes = data.size();
        if (m.payloads_) msg.payload.assign(data.begin(), data.end());
        msg.arrival = arrival;
        ep.unexpected.push_back(std::move(msg));
      }
      // Eager sends complete locally as soon as the payload is injected.
      ctx_->complete(*done, ctx_->now());
      return;
    }

    // Rendezvous: only an RTS goes out now; the bulk transfer is scheduled
    // when the target matches it (which requires target-side MPI progress).
    const sim::Time rts_arrival =
        m.fabric_->transfer_control(rank(), dst, ctx_->now());
    Machine::Message msg;
    msg.src = rank();
    msg.tag = tag;
    msg.rendezvous = true;
    msg.bytes = data.size();
    msg.rndv_data = data.data();
    msg.arrival = rts_arrival;
    msg.sender_post = ctx_->now();
    msg.send_done = done;

    auto it = std::find_if(ep.posted.begin(), ep.posted.end(),
                           [&](const Machine::PostedRecv& r) {
                             return Machine::matches(r, rank(), tag);
                           });
    if (it != ep.posted.end()) {
      // Pre-posted receive: the handshake is serviced at the target's next
      // MPI-progress opportunity after the RTS lands.
      const sim::Time match = m.progress_at(dst, rts_arrival);
      const sim::Time data_arrival =
          m.finish_rendezvous(msg, dst, it->buf, match);
      ctx_->complete(*it->done, data_arrival + m.params_.recv_overhead);
      ctx_->complete(*done, data_arrival);
      ep.posted.erase(it);
    } else {
      ep.unexpected.push_back(std::move(msg));
    }
  });
  return Request(std::move(done));
}

Request Mpi::irecv(int src, Tag tag, std::span<std::byte> buf) {
  TPIO_CHECK(src == kAnySource || (src >= 0 && src < size()),
             "irecv: source out of range");
  Machine& m = *machine_;
  auto done = std::make_shared<sim::Event>();

  ctx_->act([&] {
    Machine::Endpoint& ep = m.endpoints_[static_cast<std::size_t>(rank())];
    // Walk the unexpected queue in arrival order; each scanned entry costs
    // CPU — the queue-depth penalty aggregators pay with two-sided shuffles.
    std::size_t scanned = 0;
    auto it = ep.unexpected.begin();
    for (; it != ep.unexpected.end(); ++it) {
      ++scanned;
      if ((src == kAnySource || it->src == src) && it->tag == tag) break;
    }
    ctx_->advance(static_cast<sim::Duration>(scanned) * m.params_.match_cost);

    if (it == ep.unexpected.end()) {
      ep.posted.push_back(Machine::PostedRecv{src, tag, buf, done});
      return;
    }

    if (!it->rendezvous) {
      TPIO_CHECK(buf.size() >= it->bytes,
                 "receive buffer smaller than incoming message");
      if (m.payloads_) std::memcpy(buf.data(), it->payload.data(), it->bytes);
      const sim::Time t = std::max(ctx_->now(), it->arrival);
      ctx_->complete(*done, t + m.params_.recv_overhead);
    } else {
      // We are inside an MPI call right now, so the RTS is serviced here.
      const sim::Time data_arrival =
          m.finish_rendezvous(*it, rank(), buf, ctx_->now());
      ctx_->complete(*it->send_done, data_arrival);
      ctx_->complete(*done, data_arrival + m.params_.recv_overhead);
    }
    ep.unexpected.erase(it);
  });
  return Request(std::move(done));
}

void Mpi::send(int dst, Tag tag, std::span<const std::byte> data) {
  Request r = isend(dst, tag, data);
  wait(r);
}

void Mpi::recv(int src, Tag tag, std::span<std::byte> buf) {
  Request r = irecv(src, tag, buf);
  wait(r);
}

void Mpi::wait(Request& req) {
  TPIO_CHECK(req.valid(), "wait on an empty request");
  ctx_->wait_event(*req.ev_, "mpi.wait");
  req.ev_.reset();
}

void Mpi::waitall(std::span<Request> reqs) {
  for (Request& r : reqs) {
    if (r.valid()) wait(r);
  }
}

bool Mpi::test(Request& req) {
  TPIO_CHECK(req.valid(), "test on an empty request");
  const bool done = ctx_->test_event(*req.ev_, sim::nanoseconds(100));
  if (done) req.ev_.reset();
  return done;
}

void Mpi::set_unavailable_until(sim::Time t) {
  Machine& m = *machine_;
  ctx_->act([&] {
    auto& until = m.endpoints_[static_cast<std::size_t>(rank())].unavailable_until;
    until = std::max(until, t);
  });
}

}  // namespace tpio::smpi

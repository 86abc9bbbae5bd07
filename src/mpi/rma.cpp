#include <algorithm>
#include <cstring>

#include "mpi/internal.hpp"
#include "mpi/mpi.hpp"
#include "simbase/error.hpp"

namespace tpio::smpi {

using detail::kControlBytes;

Window::Window(Machine& m)
    : origin_puts_(static_cast<std::size_t>(m.size())),
      machine_(&m),
      targets_(static_cast<std::size_t>(m.size())),
      fence_sync_(m.size()) {}

std::span<std::byte> Window::local(int rank) {
  return targets_[static_cast<std::size_t>(rank)].mem.span();
}

std::size_t Window::local_size(int rank) const {
  return targets_[static_cast<std::size_t>(rank)].mem.size();
}

std::shared_ptr<Window> Mpi::win_allocate(std::size_t local_bytes) {
  Machine& m = *machine_;
  const int P = size();
  // Pinning the exposed pages is CPU work before the collective sync.
  const auto pages = static_cast<sim::Duration>((local_bytes + 4095) / 4096);
  ctx_->advance(pages * m.params_.win_register_per_page);
  std::shared_ptr<Window> win = ctx_->act([&] {
    Machine::WinCreateSlot& slot = m.win_create_;
    if (!slot.win) slot.win = std::shared_ptr<Window>(new Window(m));
    // Zeroed when puts land bytes: a verified run writes the gaps no put
    // covers to the file. smpi never touches a size-only window, but it
    // stays backed: its owner may still write it.
    slot.win->targets_[static_cast<std::size_t>(rank())].mem =
        sim::BufferPool::local().acquire(
            local_bytes, m.payloads_ ? sim::BufferPool::Contents::zeroed
                                     : sim::BufferPool::Contents::overwritten);
    std::shared_ptr<Window> w = slot.win;
    slot.arrived += 1;
    if (slot.arrived == P) slot = Machine::WinCreateSlot{};
    return w;
  });
  // Allocation is collective and synchronizing.
  m.barrier_sync_.arrive(*ctx_, m.sync_collective_cost(P), /*floor=*/0,
                         "mpi.win_allocate");
  return win;
}

void Mpi::put(Window& win, int target, std::size_t target_offset,
              std::span<const std::byte> data) {
  TPIO_CHECK(target >= 0 && target < size(), "put: target out of range");
  if (data.empty()) return;
  Machine& m = *machine_;
  ctx_->advance(m.params_.put_overhead);
  ctx_->act([&] {
    Window::TargetState& t = win.targets_[static_cast<std::size_t>(target)];
    TPIO_CHECK(target_offset + data.size() <= t.mem.size(),
               "put outside the target window");
    // The NIC moves the bytes; no CPU at the target, no matching anywhere.
    const sim::Time arrival =
        m.fabric_->transfer(rank(), target, data.size(), ctx_->now());
    if (m.payloads_) {
      std::memcpy(t.mem.data() + target_offset, data.data(), data.size());
    }
    win.epoch_last_arrival_ = std::max(win.epoch_last_arrival_, arrival);
    // An origin puts to its targets in runs, so the newest entry is the
    // usual hit.
    auto& mine = win.origin_puts_[static_cast<std::size_t>(rank())];
    const auto it =
        std::find_if(mine.rbegin(), mine.rend(),
                     [&](const auto& e) { return e.first == target; });
    if (it == mine.rend()) {
      mine.emplace_back(target, arrival);
    } else {
      it->second = std::max(it->second, arrival);
    }
  });
}

void Mpi::win_fence(Window& win) {
  Machine& m = *machine_;
  // The closing fence cannot release before every put of the epoch has
  // landed. Each arriver passes the epoch's current arrival maximum as a
  // floor; the sync point takes the max over arrivers, and by baton
  // ordering the *last* arriver observes every committed put of the epoch,
  // so the release time is exact.
  const int P = size();
  const sim::Time floor = ctx_->act([&] { return win.epoch_last_arrival_; });
  const auto cost = static_cast<sim::Duration>(
      static_cast<double>(m.sync_collective_cost(P)) *
      m.params().fence_cost_factor);
  win.fence_sync_.arrive(*ctx_, cost, floor, "mpi.win_fence");
  // Open the next epoch. The guard keeps the reset from erasing a put that
  // an already-released rank issued for the new epoch (such a put's
  // arrival necessarily lies after this rank's post-release clock). This
  // rank's own puts of the closed epoch have all landed, so it forgets
  // them:
  ctx_->act([&] {
    if (win.epoch_last_arrival_ <= ctx_->now()) win.epoch_last_arrival_ = 0;
    win.origin_puts_[static_cast<std::size_t>(rank())].clear();
  });
}

void Mpi::win_lock(Window& win, int target, LockType type) {
  TPIO_CHECK(target >= 0 && target < size(), "win_lock: target out of range");
  Machine& m = *machine_;
  auto granted = std::make_shared<sim::Event>();
  ctx_->act([&] {
    Window::TargetState& t = win.targets_[static_cast<std::size_t>(target)];
    const bool free_now =
        !t.exclusive_held &&
        (type == LockType::Shared ? t.queue.empty()
                                  : (t.shared_holders == 0 && t.queue.empty()));
    if (free_now) {
      if (type == LockType::Exclusive) {
        t.exclusive_held = true;
      } else {
        t.shared_holders += 1;
      }
      // Lock acquisition: control message to the target, serial handling
      // by the target's lock agent, response back. The lock is only
      // virtually free after the previous holder's release.
      const auto iv = t.lock_agent.reserve(
          std::max(ctx_->now() + m.params_.rma_control_latency,
                   t.last_release),
          m.params_.lock_service);
      ctx_->complete(*granted, iv.end + m.params_.rma_control_latency);
    } else {
      t.queue.push_back(Window::LockWaiter{type, granted});
    }
  });
  ctx_->wait_event(*granted, "mpi.win_lock");
}

void Mpi::win_unlock(Window& win, int target) {
  Machine& m = *machine_;
  ctx_->act([&] {
    Window::TargetState& t = win.targets_[static_cast<std::size_t>(target)];
    // Passive-target completion: unlock returns only after this origin's
    // RMA operations on the target have landed.
    auto& mine = win.origin_puts_[static_cast<std::size_t>(rank())];
    const auto it =
        std::find_if(mine.begin(), mine.end(),
                     [&](const auto& e) { return e.first == target; });
    sim::Time flush = ctx_->now();
    if (it != mine.end()) {
      flush = std::max(flush, it->second);
      mine.erase(it);
    }
    // The release notification is handled by the same serial lock agent.
    const auto iv = t.lock_agent.reserve(
        flush + m.params_.rma_control_latency, m.params_.lock_service);
    const sim::Time released = iv.end;
    t.last_release = std::max(t.last_release, released);
    if (t.exclusive_held) {
      t.exclusive_held = false;
    } else {
      TPIO_CHECK(t.shared_holders > 0, "unlock without a held lock");
      t.shared_holders -= 1;
    }
    // Grant queued waiters in FIFO order: one exclusive, or a run of
    // shared locks.
    auto w = t.queue.begin();
    for (; w != t.queue.end(); ++w) {
      if (w->type == LockType::Exclusive) {
        if (t.shared_holders > 0 || t.exclusive_held) break;
        t.exclusive_held = true;
      } else {
        if (t.exclusive_held) break;
        t.shared_holders += 1;
      }
      ctx_->complete(*w->granted,
                     t.last_release + 2 * m.params_.rma_control_latency);
    }
    t.queue.erase(t.queue.begin(), w);
    ctx_->advance_to(released);
  });
}

}  // namespace tpio::smpi

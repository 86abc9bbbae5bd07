#include "sched/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>

#include "simbase/error.hpp"
#include "simbase/sanitizers.hpp"

// The x86-64 switcher is a dozen instructions; every other architecture
// falls back to ucontext (correct everywhere POSIX, costs a sigprocmask
// syscall pair per switch). -DTPIO_FIBER_UCONTEXT forces the fallback.
#if defined(__x86_64__) && !defined(TPIO_FIBER_UCONTEXT)
#define TPIO_FIBER_ASM_X86_64 1
#else
#include <ucontext.h>
#endif

namespace tpio::sim {

namespace {

thread_local Fiber* t_current = nullptr;

std::size_t round_up(std::size_t n, std::size_t align) {
  return (n + align - 1) / align * align;
}

std::size_t page_size() {
  const long p = ::sysconf(_SC_PAGESIZE);
  return p > 0 ? static_cast<std::size_t>(p) : 4096;
}

}  // namespace

extern "C" void tpio_fiber_main(void* f);

#ifdef TPIO_FIBER_ASM_X86_64

// tpio_fiber_swap(save_sp /*rdi*/, load_sp /*rsi*/): push the SysV
// callee-saved state (GP registers plus the mxcsr/x87 control words),
// publish the old stack pointer through *save_sp, adopt the new stack and
// return on it. The matching initial frame is built in the constructor.
__asm__(
    ".text\n"
    ".align 16\n"
    ".globl tpio_fiber_swap\n"
    ".hidden tpio_fiber_swap\n"
    ".type tpio_fiber_swap,@function\n"
    "tpio_fiber_swap:\n"
    "  pushq %rbp\n"
    "  pushq %rbx\n"
    "  pushq %r12\n"
    "  pushq %r13\n"
    "  pushq %r14\n"
    "  pushq %r15\n"
    "  subq $8, %rsp\n"
    "  stmxcsr (%rsp)\n"
    "  fnstcw 4(%rsp)\n"
    "  movq %rsp, (%rdi)\n"
    "  movq %rsi, %rsp\n"
    "  ldmxcsr (%rsp)\n"
    "  fldcw 4(%rsp)\n"
    "  addq $8, %rsp\n"
    "  popq %r15\n"
    "  popq %r14\n"
    "  popq %r13\n"
    "  popq %r12\n"
    "  popq %rbx\n"
    "  popq %rbp\n"
    "  retq\n"
    ".size tpio_fiber_swap, .-tpio_fiber_swap\n");

// First activation of a fiber lands here via the ret in tpio_fiber_swap,
// with the Fiber* planted in %r12 by the initial frame. .cfi_undefined rip
// terminates any unwind attempt at the stack base.
__asm__(
    ".text\n"
    ".align 16\n"
    ".globl tpio_fiber_trampoline\n"
    ".hidden tpio_fiber_trampoline\n"
    ".type tpio_fiber_trampoline,@function\n"
    "tpio_fiber_trampoline:\n"
    ".cfi_startproc\n"
    ".cfi_undefined rip\n"
    "  movq %r12, %rdi\n"
    "  callq tpio_fiber_main\n"
    "  ud2\n"
    ".cfi_endproc\n"
    ".size tpio_fiber_trampoline, .-tpio_fiber_trampoline\n");

extern "C" {
void tpio_fiber_swap(void** save_sp, void* load_sp);
void tpio_fiber_trampoline();
}

#else  // ucontext fallback

namespace {
struct UcPair {
  ucontext_t fiber_uc;
  ucontext_t host_uc;
};

void uc_trampoline(unsigned hi, unsigned lo) {
  tpio_fiber_main(reinterpret_cast<void*>(
      (static_cast<std::uintptr_t>(hi) << 32) |
      static_cast<std::uintptr_t>(lo)));
}
}  // namespace

#endif

Fiber::Fiber(std::size_t stack_bytes, Entry entry, void* arg)
    : entry_(entry), arg_(arg) {
  const std::size_t page = page_size();
  stack_bytes_ = round_up(std::max(stack_bytes, page), page);
  map_bytes_ = stack_bytes_ + page;  // + guard page below the stack
  void* m = ::mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                   -1, 0);
  TPIO_CHECK(m != MAP_FAILED, "fiber stack mmap failed");
  TPIO_CHECK(::mprotect(m, page, PROT_NONE) == 0,
             "fiber guard-page mprotect failed");
  map_base_ = m;
  stack_lo_ = static_cast<char*>(m) + page;
#ifdef TPIO_ASAN
  // The mapping may reuse the address range of an earlier fiber's stack,
  // whose frames that never returned (run_entry's final switch home, or a
  // fiber destroyed while suspended) left their redzones poisoned in
  // ASan's shadow; munmap does not clear it.
  __asan_unpoison_memory_region(stack_lo_, stack_bytes_);
#endif

#ifdef TPIO_FIBER_ASM_X86_64
  // Initial frame, mirroring tpio_fiber_swap's save layout (ascending):
  //   [mxcsr|fcw][r15][r14][r13][r12 = this][rbx][rbp][ret = trampoline]
  // Top-of-stack is page-aligned, so rsp % 16 == 0 when the trampoline
  // begins and the ABI alignment holds at the call below it.
  char* top = static_cast<char*>(stack_lo_) + stack_bytes_;
  void** slots = reinterpret_cast<void**>(top) - 8;
  std::uint32_t* fpw = reinterpret_cast<std::uint32_t*>(&slots[0]);
  std::uint32_t mxcsr = 0;
  std::uint16_t fcw = 0;
  __asm__ volatile("stmxcsr %0" : "=m"(mxcsr));
  __asm__ volatile("fnstcw %0" : "=m"(fcw));
  fpw[0] = mxcsr;
  fpw[1] = fcw;
  slots[1] = nullptr;  // r15
  slots[2] = nullptr;  // r14
  slots[3] = nullptr;  // r13
  slots[4] = this;     // r12 -> trampoline's argument
  slots[5] = nullptr;  // rbx
  slots[6] = nullptr;  // rbp
  slots[7] = reinterpret_cast<void*>(&tpio_fiber_trampoline);
  fiber_sp_ = slots;
#else
  auto* uc = new UcPair{};
  TPIO_CHECK(::getcontext(&uc->fiber_uc) == 0, "getcontext failed");
  uc->fiber_uc.uc_stack.ss_sp = stack_lo_;
  uc->fiber_uc.uc_stack.ss_size = stack_bytes_;
  uc->fiber_uc.uc_link = nullptr;
  const auto self = reinterpret_cast<std::uintptr_t>(this);
  ::makecontext(&uc->fiber_uc, reinterpret_cast<void (*)()>(&uc_trampoline),
                2, static_cast<unsigned>(self >> 32),
                static_cast<unsigned>(self & 0xFFFFFFFFu));
  fiber_sp_ = uc;
#endif

#ifdef TPIO_TSAN
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
#ifdef TPIO_TSAN
  if (tsan_fiber_) __tsan_destroy_fiber(tsan_fiber_);
#endif
#ifndef TPIO_FIBER_ASM_X86_64
  delete static_cast<UcPair*>(fiber_sp_);
#endif
  if (map_base_) ::munmap(map_base_, map_bytes_);
}

Fiber* Fiber::current() { return t_current; }

void Fiber::resume() {
  TPIO_CHECK(!finished_, "resume of a finished fiber");
  TPIO_CHECK(t_current != this, "re-entrant resume of a running fiber");
  Fiber* prev = t_current;
  t_current = this;
#ifdef TPIO_TSAN
  tsan_host_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
#ifdef TPIO_ASAN
  __sanitizer_start_switch_fiber(&asan_host_fake_, stack_lo_, stack_bytes_);
#endif
#ifdef TPIO_FIBER_ASM_X86_64
  tpio_fiber_swap(&host_sp_, fiber_sp_);
#else
  auto* uc = static_cast<UcPair*>(fiber_sp_);
  TPIO_CHECK(::swapcontext(&uc->host_uc, &uc->fiber_uc) == 0,
             "swapcontext into fiber failed");
#endif
  // Back on the host stack: the fiber suspended or finished.
#ifdef TPIO_ASAN
  __sanitizer_finish_switch_fiber(asan_host_fake_, nullptr, nullptr);
#endif
  t_current = prev;
}

void Fiber::suspend() {
  Fiber* f = t_current;
  TPIO_CHECK(f != nullptr, "Fiber::suspend outside a running fiber");
#ifdef TPIO_TSAN
  __tsan_switch_to_fiber(f->tsan_host_, 0);
#endif
#ifdef TPIO_ASAN
  __sanitizer_start_switch_fiber(&f->asan_fiber_fake_, f->asan_host_bottom_,
                                 f->asan_host_size_);
#endif
#ifdef TPIO_FIBER_ASM_X86_64
  tpio_fiber_swap(&f->fiber_sp_, f->host_sp_);
#else
  auto* uc = static_cast<UcPair*>(f->fiber_sp_);
  TPIO_CHECK(::swapcontext(&uc->fiber_uc, &uc->host_uc) == 0,
             "swapcontext to host failed");
#endif
  // Resumed again.
#ifdef TPIO_ASAN
  __sanitizer_finish_switch_fiber(f->asan_fiber_fake_, &f->asan_host_bottom_,
                                  &f->asan_host_size_);
#endif
}

void Fiber::run_entry(Fiber* f) {
#ifdef TPIO_ASAN
  // First arrival on this stack: no fake stack to restore yet; capture the
  // host stack bounds for the switches back.
  __sanitizer_finish_switch_fiber(nullptr, &f->asan_host_bottom_,
                                  &f->asan_host_size_);
#endif
  f->entry_(f->arg_);
  f->finished_ = true;
  // Final switch home; this context is never resumed again.
#ifdef TPIO_TSAN
  __tsan_switch_to_fiber(f->tsan_host_, 0);
#endif
#ifdef TPIO_ASAN
  // nullptr releases this fiber's fake stack: it is dying.
  __sanitizer_start_switch_fiber(nullptr, f->asan_host_bottom_,
                                 f->asan_host_size_);
#endif
#ifdef TPIO_FIBER_ASM_X86_64
  void* discard = nullptr;
  tpio_fiber_swap(&discard, f->host_sp_);
#else
  auto* uc = static_cast<UcPair*>(f->fiber_sp_);
  (void)::swapcontext(&uc->fiber_uc, &uc->host_uc);
#endif
  // Unreachable: a finished fiber is never resumed (asserted in resume()).
}

extern "C" void tpio_fiber_main(void* f) {
  Fiber::run_entry(static_cast<Fiber*>(f));
}

std::size_t Fiber::default_stack_bytes() {
  // Re-read per call (called once per Conductor::run, not per switch) so
  // tests and long-lived processes can adjust the override.
  if (const char* e = std::getenv("TPIO_FIBER_STACK_KB")) {
    char* end = nullptr;
    const unsigned long kb = std::strtoul(e, &end, 10);
    if (end != e && *end == '\0' && kb >= 16 && kb <= (1ul << 20)) {
      return static_cast<std::size_t>(kb) << 10;
    }
  }
#if defined(TPIO_ASAN) || defined(TPIO_TSAN)
  return std::size_t{1} << 20;
#else
  return std::size_t{256} << 10;
#endif
}

}  // namespace tpio::sim

// An all-thread CPU sampler, loaded into a program with LD_PRELOAD:
//
//   export MRMB_PROF_OUT=/tmp/prof
//   LD_PRELOAD=build/tools/prof/libmrmb_prof.so build/examples/quickstart
//   python3 tools/prof/symbolize.py /tmp/prof.*.txt
//
// An ITIMER_PROF timer raises SIGPROF every millisecond of the process's
// CPU time, user and system, summed over its threads, and the kernel
// delivers it to the thread that was running, so every
// thread is sampled in proportion to the CPU it used (gprof samples only
// the main thread). The handler records the interrupted program counter
// and the word at the stack pointer. In a function that has pushed nothing
// yet, which libc's memcpy and memcmp are at almost every instruction, that
// word is the return address: the symbolizer charges samples in such
// stripped code to the caller. Time in page faults is charged to the
// faulting instruction. At exit the samples and /proc/self/maps are written
// to MRMB_PROF_OUT.<pid>.txt (default prefix "mrmb-prof"). Only programs
// that exit through exit() or main's return write a profile, and the
// sampler cannot be combined with a sanitizer runtime, which must be the
// first object loaded.

#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace {

struct Sample {
  uintptr_t pc;
  uintptr_t stack_word;
};

// 16 MiB of zero pages, touched only as samples arrive: one sample per
// millisecond of CPU time, so about an hour on four busy threads.
constexpr size_t kMaxSamples = size_t{1} << 20;
Sample g_samples[kMaxSamples];
std::atomic<size_t> g_taken{0};

void OnSigprof(int, siginfo_t*, void* context) {
#if defined(__x86_64__)
  const mcontext_t& regs = static_cast<const ucontext_t*>(context)->uc_mcontext;
  const auto pc = static_cast<uintptr_t>(regs.gregs[REG_RIP]);
  const auto* sp = reinterpret_cast<const uintptr_t*>(regs.gregs[REG_RSP]);
  const size_t slot = g_taken.fetch_add(1, std::memory_order_relaxed);
  if (slot < kMaxSamples) g_samples[slot] = {pc, *sp};
#else
  (void)context;  // only x86-64 register layouts are decoded
#endif
}

__attribute__((constructor)) void StartSampling() {
  struct sigaction action = {};
  action.sa_sigaction = OnSigprof;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  if (sigaction(SIGPROF, &action, nullptr) != 0) return;
  itimerval timer = {};
  timer.it_interval.tv_usec = 1000;
  timer.it_value = timer.it_interval;
  setitimer(ITIMER_PROF, &timer, nullptr);
}

__attribute__((destructor)) void WriteProfile() {
  const itimerval off = {};
  setitimer(ITIMER_PROF, &off, nullptr);
  const char* prefix = std::getenv("MRMB_PROF_OUT");
  const std::string path = std::string(prefix != nullptr ? prefix
                                                         : "mrmb-prof") +
                           "." + std::to_string(getpid()) + ".txt";
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "mrmb-prof: cannot write %s\n", path.c_str());
    return;
  }
  const size_t taken = g_taken.load();
  const size_t kept = std::min(taken, kMaxSamples);
  std::fprintf(out, "# mrmb-prof/1 samples=%zu dropped=%zu\nmaps\n", kept,
               taken - kept);
  if (FILE* maps = std::fopen("/proc/self/maps", "r")) {
    char line[4096];
    while (std::fgets(line, sizeof(line), maps) != nullptr) {
      std::fputs(line, out);
    }
    std::fclose(maps);
  }
  std::fputs("samples\n", out);
  for (size_t i = 0; i < kept; ++i) {
    std::fprintf(out, "%jx %jx\n", static_cast<uintmax_t>(g_samples[i].pc),
                 static_cast<uintmax_t>(g_samples[i].stack_word));
  }
  std::fclose(out);
  std::fprintf(stderr, "mrmb-prof: %zu samples written to %s\n", kept,
               path.c_str());
}

}  // namespace

/* CPU affinity of one thread, for Affinity. Linux only; elsewhere the
   calls do nothing and report failure. */

#define _GNU_SOURCE
#include <caml/mlvalues.h>

#if defined(__linux__)
#include <sched.h>
#include <sys/types.h>

/* Pin thread [tid] (0 = the calling thread) to [cpu], or, when [cpu]
   is negative, let it run on every CPU the process was started with.
   Returns whether the kernel accepted the mask. */
static cpu_set_t initial;
static int initial_known = 0;

value perfbench_pin(value tid, value cpu)
{
  cpu_set_t set;
  if (!initial_known) {
    if (sched_getaffinity(0, sizeof initial, &initial) != 0) return Val_false;
    initial_known = 1;
  }
  if (Int_val(cpu) < 0) {
    set = initial;
  } else {
    CPU_ZERO(&set);
    CPU_SET(Int_val(cpu), &set);
  }
  return Val_bool(sched_setaffinity((pid_t)Int_val(tid), sizeof set, &set) == 0);
}
#else
value perfbench_pin(value tid, value cpu)
{
  (void)tid;
  (void)cpu;
  return Val_false;
}
#endif

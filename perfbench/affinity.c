/* CPU affinity for the benchmark's rounds (see [Affinity] in elkbench.ml). */
#define _GNU_SOURCE
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

#ifdef __linux__
#include <sched.h>
#endif

/* The CPUs this process may run on, in increasing order; [] where the
   platform has no affinity call. */
value perfbench_allowed_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal2(list, cell);
  list = Val_emptylist;
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; cpu--) {
      if (CPU_ISSET(cpu, &set)) {
        cell = caml_alloc_small(2, Tag_cons);
        Field(cell, 0) = Val_int(cpu);
        Field(cell, 1) = list;
        list = cell;
      }
    }
  }
#endif
  CAMLreturn(list);
}

/* Run this thread on [cpu] only.  False if that failed. */
value perfbench_pin_cpu(value cpu)
{
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Int_val(cpu), &set);
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
#else
  (void)cpu;
  return Val_false;
#endif
}

/* Nanosecond clocks for the benchmark: monotonic wall time for spans,
   and the CPU time of the whole process (every thread) for the
   end-to-end timings.

   The native entry points take and return untagged machine integers
   and never allocate, so OCaml calls them as [@@noalloc]: reading a
   clock around a call does not disturb the minor-word counts recorded
   for that call. */

#include <time.h>
#include <caml/mlvalues.h>

intnat perfbench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

value perfbench_now_ns_byte(value unit)
{
  return Val_long(perfbench_now_ns(unit));
}

intnat perfbench_cpu_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

value perfbench_cpu_ns_byte(value unit)
{
  return Val_long(perfbench_cpu_ns(unit));
}

/* A SIGPROF program-counter sampler. An ITIMER_PROF interval timer
   interrupts the process every [interval_us] of CPU time it consumes;
   the handler stores the interrupted instruction pointer, read from the
   signal's ucontext, into a preallocated buffer (nothing else is
   async-signal-safe enough to do there). The kernel rounds the interval
   up to its scheduler tick, so a 100 us request samples at the tick
   rate. Samples are written with the executable's load base, so that
   link-time addresses ([pc - base]) can be looked up with nm and
   objdump even when the executable is position independent. */

#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

static uintptr_t *samples;
static size_t capacity;
static volatile size_t taken;
static volatile size_t lost;
static struct itimerval running;

static void on_prof(int sig, siginfo_t *info, void *context)
{
  ucontext_t *uc = context;
  uintptr_t pc = 0;
  (void)sig;
  (void)info;
#if defined(__x86_64__)
  pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  pc = (uintptr_t)uc->uc_mcontext.pc;
#else
  (void)uc;
#endif
  if (taken < capacity)
    samples[taken++] = pc;
  else
    lost++;
}

static void set_timer(const struct itimerval *t)
{
  if (setitimer(ITIMER_PROF, t, NULL) != 0)
    caml_failwith("sampler: setitimer");
}

/* Allocates the buffer and installs the handler; the timer starts
   stopped. */
value sampler_init(value interval_us, value cap)
{
  struct sigaction sa;
  capacity = (size_t)Long_val(cap);
  samples = malloc(capacity * sizeof *samples);
  if (samples == NULL)
    caml_failwith("sampler: out of memory");
  taken = 0;
  lost = 0;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, NULL) != 0)
    caml_failwith("sampler: sigaction");
  memset(&running, 0, sizeof running);
  running.it_interval.tv_usec = Long_val(interval_us);
  running.it_value.tv_usec = Long_val(interval_us);
  return Val_unit;
}

value sampler_resume(value unit)
{
  (void)unit;
  set_timer(&running);
  return Val_unit;
}

value sampler_pause(value unit)
{
  struct itimerval off;
  (void)unit;
  memset(&off, 0, sizeof off);
  set_timer(&off);
  return Val_unit;
}

value sampler_taken(value unit)
{
  (void)unit;
  return Val_long(taken);
}

static int first_object(struct dl_phdr_info *info, size_t size, void *base)
{
  (void)size;
  *(uintptr_t *)base = (uintptr_t)info->dlpi_addr;
  return 1; /* the executable comes first */
}

/* Writes "base 0x..", "lost N", then one sampled pc per line. */
value sampler_write(value path)
{
  CAMLparam1(path);
  uintptr_t base = 0;
  size_t i;
  FILE *f = fopen(String_val(path), "w");
  if (f == NULL)
    caml_failwith("sampler: cannot open the output file");
  dl_iterate_phdr(first_object, &base);
  fprintf(f, "base 0x%lx\nlost %lu\n", (unsigned long)base, (unsigned long)lost);
  for (i = 0; i < taken; i++)
    fprintf(f, "%lx\n", (unsigned long)samples[i]);
  fclose(f);
  CAMLreturn(Val_unit);
}

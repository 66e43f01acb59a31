/* wait4(2) for the benchmark: reaps one child and returns its exit
   status together with its peak resident set size, which the kernel
   tracks exactly (ru_maxrss) -- no sampling of /proc while the child
   runs, so the measurement adds no load beside the process measured. */

#define _GNU_SOURCE
#include <errno.h>
#include <sys/types.h>
#include <sys/time.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/signals.h>

/* (exit code, or minus the signal number; peak RSS in KiB) */
value benchsuite_wait4(value v_pid)
{
  CAMLparam1(v_pid);
  CAMLlocal1(res);
  int status = 0;
  struct rusage ru;
  pid_t r;
  pid_t pid = Int_val(v_pid);
  caml_enter_blocking_section();
  do {
    r = wait4(pid, &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) caml_failwith("wait4 failed");
  res = caml_alloc_tuple(2);
  Store_field(res, 0,
              Val_int(WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status)));
  Store_field(res, 1, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}

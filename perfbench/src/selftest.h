// Self-test of the benchmark's own checks: every check must accept the
// output of a real (small) run and reject the same output after one
// deliberate perturbation. Returns the process exit code.
#ifndef PERFBENCH_SRC_SELFTEST_H_
#define PERFBENCH_SRC_SELFTEST_H_

namespace perfbench {

int RunSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SELFTEST_H_
